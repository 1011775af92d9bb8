// Package netproto is the RESP-style wire protocol spoken between the
// mvgcd server (cmd/mvgcd, internal/netserver) and the pipelining client
// (internal/netclient).  The framing is deliberately the Redis
// serialization protocol's core subset, because it is trivial to parse
// incrementally, self-delimiting (a reader never needs to peek past a
// request to know where it ends), and pipelining-friendly: a client may
// write any number of commands before reading the first reply, and replies
// come back strictly in request order.
//
// Requests are arrays of bulk strings:
//
//	*<nargs>\r\n  then per arg:  $<len>\r\n<bytes>\r\n
//
// Replies are one of:
//
//	+<text>\r\n        simple string (e.g. +OK)
//	-<text>\r\n        error
//	:<int>\r\n         integer
//	$<len>\r\n<bytes>\r\n  bulk string
//	$-1\r\n            null (e.g. GET on a missing key)
//	*<n>\r\n:<int>...  array of n integers (SCAN's key/value pairs)
//
// Reader and Writer reuse their buffers across calls — a warm
// request/reply cycle performs no heap allocation in this package — which
// is what lets the server's per-connection read loop keep pace with deep
// pipelines.  Command and Reply values returned by a Reader alias its
// internal buffer and are valid only until the next Read call on the same
// Reader.
package netproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Command names understood by the mvgcd server.  Keys and values travel as
// decimal int64 bulk strings.
const (
	CmdPing  = "PING"  // PING                      → +PONG
	CmdSet   = "SET"   // SET <key> <val>           → +OK   (committed when replied)
	CmdDel   = "DEL"   // DEL <key>                 → +OK   (committed when replied)
	CmdGet   = "GET"   // GET <key>                 → $<val> | $-1
	CmdSum   = "SUM"   // SUM <lo> <hi>             → :<sum of values in [lo,hi]>
	CmdLen   = "LEN"   // LEN                       → :<keys>
	CmdScan  = "SCAN"  // SCAN <lo> <n>             → *<2m> of :k :v pairs, ascending keys
	CmdMCAS  = "MCAS"  // MCAS (<k> <expect> <new>)+ → :1 swapped | :0 conflict
	CmdStats = "STATS" // STATS                     → $key=value ... (see netserver)

	// CmdScanCursor is the cursor-style chunked scan: the client drives the
	// walk, so no server-side state (and no long-pinned shard snapshot)
	// outlives a single request.
	CmdScanCursor = "SCANC" // SCANC <lo> <n> <excl>  → *<2m+2>: :more :next then k/v pairs
	// CmdRepl hands the connection over to the replication shipper: after
	// the +OK the server stops speaking RESP on this connection and streams
	// raw repl frames (see internal/repl) forever.  Args are the stream protocol's
	// token (repl.Proto), then the follower's resume position and snapshot
	// floor.
	CmdRepl = "REPL" // REPL <proto> <afterGSN> <floor> → +OK then raw repl frames
	// CmdPromote flips a follower into a writable leader.
	CmdPromote = "PROMOTE" // PROMOTE               → +OK
)

// Reply kinds, the reply's leading byte on the wire.
const (
	KindSimple = '+'
	KindError  = '-'
	KindInt    = ':'
	KindBulk   = '$'
	// KindArray is an array reply (*<n>).  This protocol's arrays carry
	// integer elements only — SCAN's alternating key/value stream — which
	// keeps the decoder reuse-friendly: elements land in Reply.Array with
	// no per-element allocation.
	KindArray = '*'
)

// Wire limits.  A frame that exceeds them is a protocol error: the peer is
// broken or hostile, and the connection should be dropped rather than
// buffered without bound.
const (
	// MaxArgs bounds a command's argument count (an MCAS touches 3 args
	// per key, so this allows >1000-key swaps).
	MaxArgs = 4096
	// MaxBulk bounds one bulk string's length.
	MaxBulk = 1 << 20
)

// ErrProtocol reports a malformed frame; errors wrapping it are fatal to
// the connection (framing is lost).
var ErrProtocol = errors.New("netproto: protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// Command is one decoded request.  Args alias the Reader's buffer and are
// valid only until the next ReadCommand on that Reader.
type Command struct {
	Args [][]byte

	buf  []byte // backing storage for all args
	offs []int  // arg boundaries within buf: arg i is buf[offs[i]:offs[i+1]]
}

// Reply is one decoded response.  Line aliases the Reader's buffer, Bulk
// and Array the Reply's own reused storage; all three are valid only until
// the next ReadReply decoding into the same Reply.
type Reply struct {
	Kind  byte
	Int   int64   // KindInt
	Line  []byte  // KindSimple / KindError text
	Bulk  []byte  // KindBulk payload; nil means the null bulk ($-1)
	Array []int64 // KindArray integer elements (SCAN's k,v,k,v,... stream)

	bulk []byte // backing storage for Bulk, grown to the largest payload seen
}

// Err returns the reply's error when it is a KindError reply, nil
// otherwise.  The returned error does not alias the Reader's buffer.
func (r *Reply) Err() error {
	if r.Kind == KindError {
		return errors.New(string(r.Line))
	}
	return nil
}

// Reader decodes frames from a peer.  Not safe for concurrent use.
type Reader struct {
	br *bufio.Reader
}

// NewReader wraps r; the buffer absorbs pipelined bursts so deep pipelines
// cost one syscall per burst, not per command.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// readLine returns the next CRLF-terminated line without its terminator.
// Lines carry only type markers and decimal lengths, so a line that
// overflows the buffer is a protocol error, not a resize trigger.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, protoErrf("header line too long")
		}
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, protoErrf("line not CRLF-terminated")
	}
	return line[:len(line)-2], nil
}

// parseInt is a no-allocation decimal int64 parser for wire numbers.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, protoErrf("empty integer")
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i = 1
		if len(b) == 1 {
			return 0, protoErrf("bare minus")
		}
	}
	// Accumulate the magnitude unsigned against a cutoff checked before
	// the multiply, so no wrap-around slips through: math.MaxInt64, or one
	// more for a negative number (math.MinInt64 has no positive twin).
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var n uint64
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 {
			return 0, protoErrf("bad digit %q", b[i])
		}
		if n > (limit-d)/10 {
			return 0, protoErrf("integer overflow")
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), nil // exact for 1<<63 too: it wraps to MinInt64
	}
	return int64(n), nil
}

// ParseInt decodes a decimal int64 argument (how keys and values travel).
func ParseInt(b []byte) (int64, error) { return parseInt(b) }

// ReadCommand decodes the next request into cmd, reusing its buffers.
// io.EOF is returned clean only between commands (the peer closed after a
// complete frame); mid-frame EOF surfaces as io.ErrUnexpectedEOF.
func (r *Reader) ReadCommand(cmd *Command) error {
	line, err := r.readLine()
	if err != nil {
		return err
	}
	if len(line) == 0 || line[0] != '*' {
		return protoErrf("expected array header, got %q", line)
	}
	n, err := parseInt(line[1:])
	if err != nil {
		return err
	}
	if n <= 0 || n > MaxArgs {
		return protoErrf("bad arg count %d", n)
	}
	cmd.buf = cmd.buf[:0]
	cmd.offs = append(cmd.offs[:0], 0)
	for i := int64(0); i < n; i++ {
		line, err := r.readLine()
		if err != nil {
			return noEOF(err)
		}
		if len(line) == 0 || line[0] != '$' {
			return protoErrf("expected bulk header, got %q", line)
		}
		l, err := parseInt(line[1:])
		if err != nil {
			return err
		}
		if l < 0 || l > MaxBulk {
			return protoErrf("bad bulk length %d", l)
		}
		start := len(cmd.buf)
		cmd.buf = append(cmd.buf, make([]byte, l+2)...)
		if _, err := io.ReadFull(r.br, cmd.buf[start:start+int(l)+2]); err != nil {
			return noEOF(err)
		}
		if cmd.buf[start+int(l)] != '\r' || cmd.buf[start+int(l)+1] != '\n' {
			return protoErrf("bulk not CRLF-terminated")
		}
		cmd.buf = cmd.buf[:start+int(l)] // drop the terminator from storage
		cmd.offs = append(cmd.offs, len(cmd.buf))
	}
	// Slicing happens after all appends: buf's backing array is final now.
	cmd.Args = cmd.Args[:0]
	for i := 0; i+1 < len(cmd.offs); i++ {
		cmd.Args = append(cmd.Args, cmd.buf[cmd.offs[i]:cmd.offs[i+1]])
	}
	return nil
}

// noEOF converts a mid-frame EOF into ErrUnexpectedEOF so callers can tell
// a clean close from a truncated frame.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadReply decodes the next response into rep, reusing its storage.
func (r *Reader) ReadReply(rep *Reply) error {
	line, err := r.readLine()
	if err != nil {
		return err
	}
	if len(line) == 0 {
		return protoErrf("empty reply line")
	}
	rep.Kind = line[0]
	rep.Int = 0
	rep.Line = nil
	rep.Bulk = nil
	rep.Array = rep.Array[:0]
	switch rep.Kind {
	case KindSimple, KindError:
		rep.Line = line[1:]
		return nil
	case KindInt:
		rep.Int, err = parseInt(line[1:])
		return err
	case KindBulk:
		l, err := parseInt(line[1:])
		if err != nil {
			return err
		}
		if l == -1 {
			return nil // null bulk: Bulk stays nil
		}
		if l < 0 || l > MaxBulk {
			return protoErrf("bad bulk length %d", l)
		}
		if int64(cap(rep.bulk)) < l+2 {
			rep.bulk = make([]byte, l+2)
		}
		buf := rep.bulk[:l+2]
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return noEOF(err)
		}
		if buf[l] != '\r' || buf[l+1] != '\n' {
			return protoErrf("bulk not CRLF-terminated")
		}
		rep.Bulk = buf[:l]
		return nil
	case KindArray:
		n, err := parseInt(line[1:])
		if err != nil {
			return err
		}
		// MaxArgs bounds the element count like a request's: a SCAN reply
		// carries two elements per entry, so this allows 2048-entry scans.
		if n < 0 || n > MaxArgs {
			return protoErrf("bad array length %d", n)
		}
		for i := int64(0); i < n; i++ {
			el, err := r.readLine()
			if err != nil {
				return noEOF(err)
			}
			if len(el) == 0 || el[0] != KindInt {
				return protoErrf("array element must be an integer, got %q", el)
			}
			v, err := parseInt(el[1:])
			if err != nil {
				return err
			}
			rep.Array = append(rep.Array, v)
		}
		return nil
	default:
		return protoErrf("unknown reply kind %q", rep.Kind)
	}
}

// Writer encodes frames.  Not safe for concurrent use; callers own
// flushing (see Flush) so pipelined bursts batch into few syscalls.
type Writer struct {
	bw  *bufio.Writer
	num [24]byte // scratch for decimal lengths and integers
}

// NewWriter wraps w behind a 64 KiB buffer, enough to batch a pipelined
// burst into few socket writes.
func NewWriter(w io.Writer) *Writer { return NewWriterSize(w, 64<<10) }

// NewWriterSize wraps w behind a buffer of the given size, for a w that
// does its own batching.
func NewWriterSize(w io.Writer, size int) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, size)}
}

func (w *Writer) line(kind byte, body []byte) {
	w.bw.WriteByte(kind)
	w.bw.Write(body)
	w.bw.WriteString("\r\n")
}

func (w *Writer) lineInt(kind byte, v int64) {
	w.line(kind, strconv.AppendInt(w.num[:0], v, 10))
}

// BeginCommand starts a request frame of nargs arguments; exactly nargs
// Arg* calls must follow.
func (w *Writer) BeginCommand(nargs int) { w.lineInt('*', int64(nargs)) }

// ArgBytes appends one bulk-string argument.
func (w *Writer) ArgBytes(b []byte) {
	w.lineInt('$', int64(len(b)))
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

// ArgString appends one bulk-string argument.
func (w *Writer) ArgString(s string) {
	w.lineInt('$', int64(len(s)))
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// ArgInt appends one decimal int64 argument (how keys and values travel).
func (w *Writer) ArgInt(v int64) {
	b := strconv.AppendInt(w.num[:0], v, 10)
	w.lineInt('$', int64(len(b)))
	// num was only scratch for the length line above; re-render the value.
	w.bw.Write(strconv.AppendInt(w.num[:0], v, 10))
	w.bw.WriteString("\r\n")
}

// Simple writes a +text reply.
func (w *Writer) Simple(s string) {
	w.bw.WriteByte(KindSimple)
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// Error writes a -text reply.  The connection survives: protocol framing
// is intact, only the command failed.
func (w *Writer) Error(msg string) {
	w.bw.WriteByte(KindError)
	w.bw.WriteString(msg)
	w.bw.WriteString("\r\n")
}

// Int writes a :n reply.
func (w *Writer) Int(v int64) { w.lineInt(KindInt, v) }

// Bulk writes a $len reply carrying b.
func (w *Writer) Bulk(b []byte) {
	w.lineInt(KindBulk, int64(len(b)))
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

// BulkInt writes an int64 as a bulk-string reply (GET's value encoding).
func (w *Writer) BulkInt(v int64) {
	b := strconv.AppendInt(w.num[4:4], v, 10)
	w.Bulk(b)
}

// Null writes the null bulk reply ($-1), GET's missing-key encoding.
func (w *Writer) Null() { w.bw.WriteString("$-1\r\n") }

// BeginArray starts a *<n> array reply; exactly n integer elements (Int
// calls) must follow.  SCAN replies are arrays of 2m integers: the m
// scanned entries' keys and values, alternating, in ascending key order.
func (w *Writer) BeginArray(n int) { w.lineInt(KindArray, int64(n)) }

// Flush writes buffered frames to the connection and reports the sticky
// write error, if any.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Buffered reports bytes encoded but not yet flushed.
func (w *Writer) Buffered() int { return w.bw.Buffered() }

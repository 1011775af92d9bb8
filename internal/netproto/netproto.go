// Package netproto is the RESP-style wire protocol spoken between the
// mvgcd server (cmd/mvgcd, internal/netserver) and the pipelining client
// (internal/netclient).  The framing is deliberately the Redis
// serialization protocol's core subset, because it is trivial to parse,
// self-delimiting (a reader never needs to peek past a request to know
// where it ends), and pipelining-friendly: a client may write any number of
// commands before reading the first reply, and replies come back strictly
// in request order.
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
// A Reader owns one byte buffer and parses each frame in one pass where it
// lies in that buffer: a Command's Args and a Reply's Line and Bulk are
// slices of it, valid only until the next Read call on the same Reader.  It
// reads from its source only when the buffer holds no whole frame.  A
// Writer renders each integer once, into scratch, and hands a short frame
// to its buffer in one write.  Neither allocates once warm — which is what
// lets the server's per-connection read loop keep pace with deep pipelines.
package netproto

import (
	"bufio"
	"bytes"
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
	// MaxScanPage bounds one SCAN's entries, so its reply's element count
	// (two per entry) stays within the array bound.
	MaxScanPage = MaxArgs / 2
)

// maxFrame bounds one whole frame, headers included: one MaxBulk payload
// and 64 KiB besides.  The largest frames either side sends — an MCAS of
// 1 365 keys, a 2 048-entry SCAN reply — are about 110 KiB of headers and
// digits; two MaxBulk arguments in one command are refused.
const maxFrame = MaxBulk + 64<<10

// readBuf is the Reader's initial buffer: a pipelined burst costs one read
// per 64 KiB, and only a frame longer than that grows it.
const readBuf = 64 << 10

// ErrProtocol reports a malformed frame; errors wrapping it are fatal to
// the connection (framing is lost).
var ErrProtocol = errors.New("netproto: protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// errShort reports that the buffered bytes end before the frame does.  It
// never leaves the package: the Reader reads more and parses again.
var errShort = errors.New("netproto: short frame")

// Command is one decoded request.  Each of Args is a slice of the Reader's
// buffer, valid only until the next ReadCommand on that Reader.
type Command struct {
	Args [][]byte
}

// Reply is one decoded response.  Line and Bulk are slices of the Reader's
// buffer and Array is the Reply's own reused storage; all three are valid
// only until the next ReadReply on that Reader.
type Reply struct {
	Kind  byte
	Int   int64   // KindInt
	Line  []byte  // KindSimple / KindError text
	Bulk  []byte  // KindBulk payload; nil means the null bulk ($-1)
	Array []int64 // KindArray integer elements (SCAN's k,v,k,v,... stream)
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
	rd   io.Reader
	buf  []byte // buf[r:w] is read and not yet decoded
	r, w int
	err  error // a read error held back until the bytes read with it are decoded
}

// NewReader wraps rd; the buffer absorbs pipelined bursts so deep pipelines
// cost one read per burst, not per command.
func NewReader(rd io.Reader) *Reader {
	return &Reader{rd: rd, buf: make([]byte, readBuf)}
}

// ReadCommand decodes the next request into cmd, reusing its Args.
// io.EOF is returned clean only between commands (the peer closed after a
// complete frame); mid-frame EOF surfaces as io.ErrUnexpectedEOF.
func (r *Reader) ReadCommand(cmd *Command) error {
	for {
		n, err := parseCommand(r.buf[r.r:r.w], cmd)
		if err == nil {
			r.r += n
			return nil
		}
		if err != errShort {
			return err
		}
		if err := r.fill(n); err != nil {
			return err
		}
	}
}

// ReadReply decodes the next response into rep, reusing its Array.  EOF is
// reported as by ReadCommand.
func (r *Reader) ReadReply(rep *Reply) error {
	for {
		n, err := parseReply(r.buf[r.r:r.w], rep)
		if err == nil {
			r.r += n
			return nil
		}
		if err != errShort {
			return err
		}
		if err := r.fill(n); err != nil {
			return err
		}
	}
}

// fill reads more of the frame at r.r, which is shorter than need, the
// least length that frame can have.  It moves the frame to the front of the
// buffer, grows the buffer if need does not fit, and reads until the frame
// has need bytes or the source returns an error.  Having read nothing, it
// returns that error: io.EOF when no frame was begun, io.ErrUnexpectedEOF
// when one was.  A frame longer than maxFrame is refused before it is
// buffered.
func (r *Reader) fill(need int) error {
	if need > maxFrame {
		return protoErrf("frame longer than %d bytes", maxFrame)
	}
	if r.r > 0 {
		r.w = copy(r.buf, r.buf[r.r:r.w])
		r.r = 0
	}
	if need > len(r.buf) {
		buf := make([]byte, min(max(need, 2*len(r.buf)), maxFrame))
		copy(buf, r.buf[:r.w])
		r.buf = buf
	}
	start := r.w
	for empty := 0; r.w < need && r.err == nil; {
		n, err := r.rd.Read(r.buf[r.w:])
		r.w += n
		r.err = err
		switch {
		case n > 0:
			empty = 0
		case err == nil:
			if empty++; empty == 100 { // as bufio gives up on a source stuck at (0, nil)
				r.err = io.ErrNoProgress
			}
		}
	}
	if r.w > start {
		return nil
	}
	err := r.err
	r.err = nil
	if err == io.EOF && r.w > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Frame parsers.  Each decodes the frame at the front of b and returns its
// length; or errShort and the least length the frame can have, when b ends
// before the frame does; or a protocol error.  Every error is decided on
// bytes already seen, so how the stream was split into reads never changes
// what it decodes to.  The least length counts the shortest encoding of
// every part still expected (6 bytes for an argument, 4 for an array
// element): a frame trickled in a byte at a time is re-parsed a number of
// times logarithmic in its argument count, plus once per byte of its last
// few headers, not once per byte of the frame.

// parseCommand decodes a request into cmd.
func parseCommand(b []byte, cmd *Command) (int, error) {
	if len(b) == 0 {
		return 1, errShort
	}
	if b[0] != '*' {
		return 0, protoErrf("expected array header, got %q", b[0])
	}
	n, i, err := header(b, 1)
	if err != nil {
		return i, err
	}
	if n <= 0 || n > MaxArgs {
		return 0, protoErrf("bad arg count %d", n)
	}
	cmd.Args = cmd.Args[:0]
	for left := int(n); left > 0; left-- {
		least := i + 6*left // "$0\r\n\r\n" per argument still to come
		if i == len(b) {
			return least, errShort
		}
		if b[i] != '$' {
			return 0, protoErrf("expected bulk header, got %q", b[i])
		}
		l, j, err := header(b, i+1)
		if err == errShort {
			return max(j, least), err
		}
		if err != nil {
			return 0, err
		}
		if l < 0 || l > MaxBulk {
			return 0, protoErrf("bad bulk length %d", l)
		}
		end := j + int(l)
		if end+2 > len(b) {
			return end + 2 + 6*(left-1), errShort
		}
		if b[end] != '\r' || b[end+1] != '\n' {
			return 0, protoErrf("bulk not CRLF-terminated")
		}
		cmd.Args = append(cmd.Args, b[j:end:end])
		i = end + 2
	}
	return i, nil
}

// parseReply decodes a response into rep.
func parseReply(b []byte, rep *Reply) (int, error) {
	if len(b) == 0 {
		return 1, errShort
	}
	*rep = Reply{Kind: b[0], Array: rep.Array[:0]}
	switch rep.Kind {
	case KindSimple, KindError:
		nl := bytes.IndexByte(b, '\n')
		if nl < 0 {
			return len(b) + 1, errShort
		}
		if b[nl-1] != '\r' {
			return 0, protoErrf("line not CRLF-terminated")
		}
		rep.Line = b[1 : nl-1 : nl-1]
		return nl + 1, nil
	case KindInt:
		v, i, err := header(b, 1)
		rep.Int = v
		return i, err
	case KindBulk:
		l, i, err := header(b, 1)
		if err != nil || l == -1 { // null bulk: Bulk stays nil
			return i, err
		}
		if l < 0 || l > MaxBulk {
			return 0, protoErrf("bad bulk length %d", l)
		}
		end := i + int(l)
		if end+2 > len(b) {
			return end + 2, errShort
		}
		if b[end] != '\r' || b[end+1] != '\n' {
			return 0, protoErrf("bulk not CRLF-terminated")
		}
		rep.Bulk = b[i:end:end]
		return end + 2, nil
	case KindArray:
		n, i, err := header(b, 1)
		if err != nil {
			return i, err
		}
		// MaxArgs bounds the element count like a request's: a SCAN reply
		// carries two elements per entry, so this allows 2048-entry scans.
		if n < 0 || n > MaxArgs {
			return 0, protoErrf("bad array length %d", n)
		}
		for left := int(n); left > 0; left-- {
			least := i + 4*left // ":0\r\n" per element still to come
			if i == len(b) {
				return least, errShort
			}
			if b[i] != KindInt {
				return 0, protoErrf("array element must be an integer, got %q", b[i])
			}
			v, j, err := header(b, i+1)
			if err == errShort {
				return max(j, least), err
			}
			if err != nil {
				return 0, err
			}
			rep.Array = append(rep.Array, v)
			i = j
		}
		return i, nil
	default:
		return 0, protoErrf("unknown reply kind %q", rep.Kind)
	}
}

// header decodes the integer of the header line whose type byte is b[i-1]
// and returns it with the offset past the line's CRLF.  A header integer is
// an optional minus and 1 to 19 digits — every int64 fits in 19 — so a
// header line is never longer than 23 bytes.
func header(b []byte, i int) (int64, int, error) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for end := min(len(b), start+19); i < end; i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		n = n*10 + uint64(d)
	}
	switch {
	case i == len(b):
		return 0, len(b) + 1, errShort
	case b[i]-'0' <= 9:
		return 0, 0, protoErrf("integer longer than 19 digits")
	case i == start:
		return 0, 0, protoErrf("expected an integer, got %q", b[i])
	case b[i] != '\r':
		return 0, 0, protoErrf("bad digit %q", b[i])
	case i+1 == len(b):
		return 0, len(b) + 1, errShort
	case b[i+1] != '\n':
		return 0, 0, protoErrf("line not CRLF-terminated")
	}
	v, err := signed(n, neg)
	return v, i + 2, err
}

// signed gives a magnitude of at most 19 digits its sign, refusing what
// falls outside int64: the one limit comparison an integer costs.
func signed(n uint64, neg bool) (int64, error) {
	if neg {
		if n > 1<<63 {
			return 0, protoErrf("integer overflow")
		}
		return -int64(n), nil // exact for 1<<63 too: it wraps to MinInt64
	}
	if n > math.MaxInt64 {
		return 0, protoErrf("integer overflow")
	}
	return int64(n), nil
}

// parseInt is a no-allocation decimal int64 parser for wire numbers.  Up to
// 19 digits accumulate unsigned with no overflow check — 19 nines fit in a
// uint64 — and the sign and range are settled once at the end.  Only
// leading zeros make a longer number that still fits.
func parseInt(b []byte) (int64, error) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, protoErrf("empty integer")
	}
	if len(b) > 19 {
		if b = bytes.TrimLeft(b, "0"); len(b) > 19 {
			return 0, protoErrf("integer overflow")
		}
	}
	var n uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, protoErrf("bad digit %q", c)
		}
		n = n*10 + uint64(d)
	}
	return signed(n, neg)
}

// ParseInt decodes a decimal int64 argument (how keys and values travel).
func ParseInt(b []byte) (int64, error) { return parseInt(b) }

// Writer encodes frames.  Not safe for concurrent use; callers own
// flushing (see Flush) so pipelined bursts batch into few syscalls.
type Writer struct {
	bw *bufio.Writer
	// num is scratch a short frame is composed in, so that it reaches bw in
	// one write: an integer frame's digits end at numEnd, its header before
	// them, its CRLF after.
	num [32]byte
}

const numEnd = 30

// pairs holds the two-digit decimal strings "00" to "99", so an integer is
// rendered two digits per division.
const pairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// NewWriter wraps w behind a 64 KiB buffer, enough to batch a pipelined
// burst into few socket writes.
func NewWriter(w io.Writer) *Writer { return NewWriterSize(w, 64<<10) }

// NewWriterSize wraps w behind a buffer of the given size, for a w that
// does its own batching.
func NewWriterSize(w io.Writer, size int) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, size)}
}

// digits renders v in decimal into num, ending at numEnd, and returns where
// it starts.
func (w *Writer) digits(v int64) int {
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	i := numEnd
	for u >= 100 {
		q := u / 100
		d := (u - q*100) * 2
		i -= 2
		w.num[i], w.num[i+1] = pairs[d], pairs[d+1]
		u = q
	}
	if u >= 10 {
		i -= 2
		w.num[i], w.num[i+1] = pairs[u*2], pairs[u*2+1]
	} else {
		i--
		w.num[i] = byte('0' + u)
	}
	if v < 0 {
		i--
		w.num[i] = '-'
	}
	return i
}

// lineInt writes <kind><v>\r\n.
func (w *Writer) lineInt(kind byte, v int64) {
	i := w.digits(v) - 1
	w.num[i] = kind
	w.num[numEnd], w.num[numEnd+1] = '\r', '\n'
	w.bw.Write(w.num[i : numEnd+2])
}

// bulkInt writes v as a bulk string, $<len>\r\n<v>\r\n: the digits are
// rendered once and their count is the length.
func (w *Writer) bulkInt(v int64) {
	i := w.digits(v)
	n := numEnd - i // 1 to 20
	w.num[numEnd], w.num[numEnd+1] = '\r', '\n'
	i -= 2
	w.num[i], w.num[i+1] = '\r', '\n'
	if n >= 10 {
		i--
		w.num[i] = byte('0' + n%10)
		n /= 10
	}
	i -= 2
	w.num[i], w.num[i+1] = '$', byte('0'+n)
	w.bw.Write(w.num[i : numEnd+2])
}

// line writes <kind><s>\r\n, in one write when it fits the scratch.
func (w *Writer) line(kind byte, s string) {
	if len(s)+len("+\r\n") > len(w.num) {
		w.bw.WriteByte(kind)
		w.bw.WriteString(s)
		w.bw.WriteString("\r\n")
		return
	}
	b := append(w.num[:0], kind)
	b = append(b, s...)
	w.bw.Write(append(b, "\r\n"...))
}

// bulkHeader composes $<n>\r\n in the scratch.
func (w *Writer) bulkHeader(n int) []byte {
	b := strconv.AppendInt(append(w.num[:0], KindBulk), int64(n), 10)
	return append(b, "\r\n"...)
}

// BeginCommand starts a request frame of nargs arguments; exactly nargs
// Arg* calls must follow.
func (w *Writer) BeginCommand(nargs int) { w.lineInt('*', int64(nargs)) }

// ArgString appends one bulk-string argument, in one write when it is as
// short as a command name.
func (w *Writer) ArgString(s string) {
	if len(s)+len("$99\r\n\r\n") > len(w.num) {
		w.bw.Write(w.bulkHeader(len(s)))
		w.bw.WriteString(s)
		w.bw.WriteString("\r\n")
		return
	}
	b := append(w.bulkHeader(len(s)), s...)
	w.bw.Write(append(b, "\r\n"...))
}

// ArgInt appends one decimal int64 argument (how keys and values travel).
func (w *Writer) ArgInt(v int64) { w.bulkInt(v) }

// Simple writes a +text reply.
func (w *Writer) Simple(s string) { w.line(KindSimple, s) }

// Error writes a -text reply.  The connection survives: protocol framing
// is intact, only the command failed.
func (w *Writer) Error(msg string) { w.line(KindError, msg) }

// Int writes a :n reply.
func (w *Writer) Int(v int64) { w.lineInt(KindInt, v) }

// Bulk writes a $len reply carrying b.
func (w *Writer) Bulk(b []byte) {
	w.bw.Write(w.bulkHeader(len(b)))
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

// BulkInt writes an int64 as a bulk-string reply (GET's value encoding).
func (w *Writer) BulkInt(v int64) { w.bulkInt(v) }

// Null writes the null bulk reply ($-1), GET's missing-key encoding.
func (w *Writer) Null() { w.bw.WriteString("$-1\r\n") }

// BeginArray starts a *<n> array reply; exactly n integer elements (Int
// calls) must follow.  SCAN replies are arrays of 2m integers: the m
// scanned entries' keys and values, alternating, in ascending key order.
func (w *Writer) BeginArray(n int) { w.lineInt(KindArray, int64(n)) }

// Write passes frames another Writer has already encoded through to the
// buffer.
func (w *Writer) Write(p []byte) (int, error) { return w.bw.Write(p) }

// Flush writes buffered frames to the connection and reports the sticky
// write error, if any.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Buffered reports bytes encoded but not yet flushed.
func (w *Writer) Buffered() int { return w.bw.Buffered() }

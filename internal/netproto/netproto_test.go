package netproto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// reset points r at a new source with nothing buffered.
func (r *Reader) reset(rd io.Reader) { r.rd, r.r, r.w, r.err = rd, 0, 0, nil }

// TestCommandRoundTrip: commands written by the client-side encoder decode
// identically through the server-side reader, across several frames on one
// connection (buffer reuse must not bleed between frames).
func TestCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginCommand(3)
	w.ArgString(CmdSet)
	w.ArgInt(42)
	w.ArgInt(-7)
	w.BeginCommand(1)
	w.ArgString(CmdLen)
	w.BeginCommand(2)
	w.ArgBytes([]byte(CmdGet))
	w.ArgInt(9223372036854775807)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	var cmd Command
	want := [][]string{
		{"SET", "42", "-7"},
		{"LEN"},
		{"GET", "9223372036854775807"},
	}
	for _, frame := range want {
		if err := r.ReadCommand(&cmd); err != nil {
			t.Fatal(err)
		}
		if len(cmd.Args) != len(frame) {
			t.Fatalf("got %d args, want %d", len(cmd.Args), len(frame))
		}
		for i, a := range frame {
			if string(cmd.Args[i]) != a {
				t.Fatalf("arg %d = %q, want %q", i, cmd.Args[i], a)
			}
		}
	}
	if err := r.ReadCommand(&cmd); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestReplyRoundTrip covers every reply kind, including the null bulk.
func TestReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Simple("OK")
	w.Error("ERR nope")
	w.Int(-123)
	w.Bulk([]byte("hello"))
	w.BulkInt(-9007)
	w.Null()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	var rep Reply
	check := func(f func()) {
		t.Helper()
		if err := r.ReadReply(&rep); err != nil {
			t.Fatal(err)
		}
		f()
	}
	check(func() {
		if rep.Kind != KindSimple || string(rep.Line) != "OK" {
			t.Fatalf("simple = %q", rep.Line)
		}
	})
	check(func() {
		if rep.Kind != KindError || rep.Err() == nil || rep.Err().Error() != "ERR nope" {
			t.Fatalf("error = %v", rep.Err())
		}
	})
	check(func() {
		if rep.Kind != KindInt || rep.Int != -123 {
			t.Fatalf("int = %d", rep.Int)
		}
	})
	check(func() {
		if rep.Kind != KindBulk || string(rep.Bulk) != "hello" {
			t.Fatalf("bulk = %q", rep.Bulk)
		}
	})
	check(func() {
		if v, err := ParseInt(rep.Bulk); err != nil || v != -9007 {
			t.Fatalf("bulk int = %q (%v)", rep.Bulk, err)
		}
	})
	check(func() {
		if rep.Kind != KindBulk || rep.Bulk != nil {
			t.Fatalf("null bulk decoded as %q", rep.Bulk)
		}
	})
}

// TestArrayReplyRoundTrip: the SCAN reply shape — an integer-only array —
// encodes and decodes through the same Reply, including the empty array
// and buffer reuse across frames.
func TestArrayReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginArray(4)
	w.Int(10)
	w.Int(-100)
	w.Int(20)
	w.Int(200)
	w.BeginArray(0)
	w.BeginArray(1)
	w.Int(7)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	var rep Reply
	if err := r.ReadReply(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindArray || len(rep.Array) != 4 {
		t.Fatalf("array reply = kind %q, %d elems", rep.Kind, len(rep.Array))
	}
	for i, want := range []int64{10, -100, 20, 200} {
		if rep.Array[i] != want {
			t.Fatalf("array[%d] = %d, want %d", i, rep.Array[i], want)
		}
	}
	if err := r.ReadReply(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindArray || len(rep.Array) != 0 {
		t.Fatalf("empty array reply = kind %q, %d elems", rep.Kind, len(rep.Array))
	}
	// The reused Reply must not accrete the previous frames' elements.
	if err := r.ReadReply(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Array) != 1 || rep.Array[0] != 7 {
		t.Fatalf("reused Reply array = %v, want [7]", rep.Array)
	}
}

var malformedReplies = []string{
	"*2\r\n:1\r\n",         // truncated mid-array
	"*1\r\n$1\r\n5\r\n",    // bulk element in an integer-only array
	"*-1\r\n",              // negative element count
	"*1\r\n:abc\r\n",       // non-numeric element
	"*100000000000000\r\n", // element count overflow
}

// TestMalformedArrayReplies: array framing violations on the reply stream
// are hard errors, same as command-side violations.
func TestMalformedArrayReplies(t *testing.T) {
	for _, in := range malformedReplies {
		r := NewReader(strings.NewReader(in))
		var rep Reply
		if err := r.ReadReply(&rep); err == nil || err == io.EOF {
			t.Fatalf("input %.40q: err = %v, want protocol error", in, err)
		}
	}
}

var malformedFrames = []string{
	"*2\r\n$3\r\nGET\r\n",         // truncated mid-frame
	"$3\r\nGET\r\n",               // bulk where an array must start
	"*1\r\n:5\r\n",                // int where a bulk must start
	"*0\r\n",                      // empty command
	"*-1\r\n",                     // negative arg count
	"*1\r\n$-1\r\n",               // null bulk inside a command
	"*1\r\n$3\r\nGETX\r\n",        // bulk body longer than declared
	"*1\r\n$3\r\nGE\r\n\r\n",      // bulk body shorter than declared
	"*1\r\n$abc\r\n",              // non-numeric length
	"*1\n$3\nGET\n",               // LF-only line endings
	"*1000000000000000000000\r\n", // arg count overflow
	strings.Repeat("x", 100_000),  // unterminated garbage line
	twoMaxBulks,                   // a frame longer than one MaxBulk payload
}

// twoMaxBulks is one command of two MaxBulk arguments: each bulk is within
// bounds, the frame is not.
var twoMaxBulks = func() string {
	var b bytes.Buffer
	w := NewWriter(&b)
	w.BeginCommand(2)
	w.ArgString(strings.Repeat("a", MaxBulk))
	w.ArgString(strings.Repeat("b", MaxBulk))
	w.Flush()
	return b.String()
}()

// TestMalformedFrames: every framing violation must be a hard error (the
// connection's framing is lost) rather than a silent mis-parse.
func TestMalformedFrames(t *testing.T) {
	for _, in := range malformedFrames {
		r := NewReader(strings.NewReader(in))
		var cmd Command
		err := r.ReadCommand(&cmd)
		if err == nil {
			t.Fatalf("input %.40q: decoded without error", in)
		}
		if err == io.EOF {
			t.Fatalf("input %.40q: clean EOF for a broken frame", in)
		}
	}
	// Oversized frames are rejected before buffering them.
	r := NewReader(strings.NewReader("*4097\r\n"))
	var cmd Command
	if err := r.ReadCommand(&cmd); !errors.Is(err, ErrProtocol) {
		t.Fatalf("MaxArgs violation: err = %v", err)
	}
	r = NewReader(strings.NewReader("*1\r\n$1048577\r\n"))
	if err := r.ReadCommand(&cmd); !errors.Is(err, ErrProtocol) {
		t.Fatalf("MaxBulk violation: err = %v", err)
	}
	// The frame bound: the second MaxBulk header is refused before its
	// payload is read — the source is cut short right after it.
	cut := strings.Index(twoMaxBulks, "\r\n$1048576\r\n") + len("\r\n$1048576\r\n")
	cut += strings.Index(twoMaxBulks[cut:], "\r\n$1048576\r\n") + len("\r\n$1048576\r\n")
	r = NewReader(strings.NewReader(twoMaxBulks[:cut]))
	if err := r.ReadCommand(&cmd); !errors.Is(err, ErrProtocol) {
		t.Fatalf("two MaxBulk arguments in one frame: err = %v, want a protocol error", err)
	}
}

// TestLargestFrames: the longest frames the two sides legitimately send — an
// MCAS of 1 365 keys (4 096 arguments) and a 2 048-entry SCAN reply, every
// integer 20 characters long — decode whole, through a buffer they
// outgrow, and through a source that hands over one byte at a time.
func TestLargestFrames(t *testing.T) {
	const keys = (MaxArgs - 1) / 3
	var cmdWire, repWire bytes.Buffer
	w := NewWriter(&cmdWire)
	w.BeginCommand(1 + 3*keys)
	w.ArgString(CmdMCAS)
	for i := 0; i < 3*keys; i++ {
		w.ArgInt(math.MinInt64 + int64(i))
	}
	w.Flush()
	w = NewWriter(&repWire)
	w.BeginArray(MaxArgs)
	for i := 0; i < MaxArgs; i++ {
		w.Int(math.MinInt64 + int64(i))
	}
	w.Flush()
	if cmdWire.Len() <= readBuf || repWire.Len() <= readBuf {
		t.Fatalf("frames of %d and %d bytes do not outgrow the %d-byte buffer", cmdWire.Len(), repWire.Len(), readBuf)
	}
	for _, src := range []func([]byte) io.Reader{
		func(b []byte) io.Reader { return bytes.NewReader(b) },
		func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
	} {
		var cmd Command
		if err := NewReader(src(cmdWire.Bytes())).ReadCommand(&cmd); err != nil {
			t.Fatalf("MCAS of %d keys: %v", keys, err)
		}
		if len(cmd.Args) != 1+3*keys || string(cmd.Args[0]) != CmdMCAS {
			t.Fatalf("MCAS decoded to %d args", len(cmd.Args))
		}
		for i, a := range cmd.Args[1:] {
			if v, err := ParseInt(a); err != nil || v != math.MinInt64+int64(i) {
				t.Fatalf("MCAS arg %d = %q", i+1, a)
			}
		}
		var rep Reply
		if err := NewReader(src(repWire.Bytes())).ReadReply(&rep); err != nil {
			t.Fatalf("SCAN reply of %d elements: %v", MaxArgs, err)
		}
		if rep.Kind != KindArray || len(rep.Array) != MaxArgs {
			t.Fatalf("SCAN reply decoded to kind %q, %d elements", rep.Kind, len(rep.Array))
		}
		for i, v := range rep.Array {
			if v != math.MinInt64+int64(i) {
				t.Fatalf("SCAN element %d = %d", i, v)
			}
		}
	}
}

// TestParseInt: the wire's integer parser accepts exactly the int64 range —
// both ends of it — and no wrap-around, however it lands.
func TestParseInt(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"-0", 0, true},
		{"-9007", -9007, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"-9223372036854775808", math.MinInt64, true},
		{"9223372036854775808", 0, false},
		{"-9223372036854775809", 0, false},
		{"20496382304121724020", 0, false}, // wraps to a value above the running total
		{"1000000000000000000000", 0, false},
		{"", 0, false},
		{"-", 0, false},
		{"+1", 0, false},
		{"12a", 0, false},
	}
	for _, c := range cases {
		got, err := ParseInt([]byte(c.in))
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseInt(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// FuzzParseInt holds ParseInt to strconv.ParseInt on every string of
// digits with an optional minus — the wire's whole integer grammar.
func FuzzParseInt(f *testing.F) {
	for _, s := range []string{"0", "-1", "9223372036854775807", "-9223372036854775808", "20496382304121724020", "18446744073709551616"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		digits := strings.TrimPrefix(s, "-")
		if digits == "" || strings.Trim(digits, "0123456789") != "" {
			t.Skip()
		}
		want, werr := strconv.ParseInt(s, 10, 64)
		got, err := ParseInt([]byte(s))
		if (err == nil) != (werr == nil) || (err == nil && got != want) {
			t.Fatalf("ParseInt(%q) = %d, %v; strconv says %d, %v", s, got, err, want, werr)
		}
	})
}

// TestCommandReuseNoAlloc: a warm ReadCommand decodes without touching the
// heap, the property that lets the server's read loop keep pace with deep
// pipelines.
func TestCommandReuseNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const frames = 100
	for i := 0; i < frames; i++ {
		w.BeginCommand(3)
		w.ArgString(CmdSet)
		w.ArgInt(int64(i))
		w.ArgInt(int64(i * 2))
	}
	w.Flush()
	wire := buf.Bytes()

	r := NewReader(bytes.NewReader(wire))
	var cmd Command
	// Warm the buffers.
	for i := 0; i < frames; i++ {
		if err := r.ReadCommand(&cmd); err != nil {
			t.Fatal(err)
		}
	}
	reader := bytes.NewReader(wire)
	r = NewReader(reader)
	allocs := testing.AllocsPerRun(50, func() {
		reader.Seek(0, io.SeekStart)
		r.reset(reader)
		for i := 0; i < frames; i++ {
			if err := r.ReadCommand(&cmd); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm decode allocates %.1f times per %d frames", allocs, frames)
	}
}

// TestReplyReuseNoAlloc: a warm ReadReply decodes every reply kind without
// touching the heap, the client reader's half of the package's
// no-allocation promise.
func TestReplyReuseNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const rounds = 25 // four replies each
	for i := 0; i < rounds; i++ {
		w.BulkInt(int64(i) * 1e9)
		w.Null()
		w.Int(int64(i))
		w.BeginArray(4)
		for j := 0; j < 4; j++ {
			w.Int(int64(i + j))
		}
	}
	w.Flush()
	reader := bytes.NewReader(buf.Bytes())
	r := NewReader(reader)
	var rep Reply
	decode := func() {
		reader.Seek(0, io.SeekStart)
		r.reset(reader)
		for i := 0; i < rounds; i++ {
			for _, kind := range []byte{KindBulk, KindBulk, KindInt, KindArray} {
				if err := r.ReadReply(&rep); err != nil {
					t.Fatal(err)
				}
				if rep.Kind != kind {
					t.Fatalf("reply kind %q, want %q", rep.Kind, kind)
				}
			}
		}
	}
	decode() // size rep's storage
	if allocs := testing.AllocsPerRun(50, decode); allocs != 0 {
		t.Fatalf("warm decode allocates %.1f times per %d replies", allocs, 4*rounds)
	}
}

// TestWriterNoAlloc: a warm Writer encodes every frame kind the client and
// the server send without touching the heap.
func TestWriterNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	w := NewWriter(io.Discard)
	encode := func() {
		for i := int64(0); i < 64; i++ {
			v := i * 1e17
			w.BeginCommand(2)
			w.ArgString(CmdGet)
			w.ArgInt(v)
			w.BeginCommand(3)
			w.ArgString(CmdSet)
			w.ArgInt(-v)
			w.ArgInt(math.MinInt64 + i)
			w.BulkInt(v)
			w.Int(-i)
			w.Simple("OK")
			w.Error("ERR bad integer")
			w.Null()
			w.BeginArray(2)
			w.Int(v)
			w.Int(math.MaxInt64 - i)
		}
		w.Flush()
	}
	encode()
	if allocs := testing.AllocsPerRun(50, encode); allocs != 0 {
		t.Fatalf("warm encode allocates %.1f times", allocs)
	}
}

// chunkReader hands its bytes over in reads of pseudo-random sizes, 1 to
// 16 bytes, drawn from seed.
type chunkReader struct {
	b    []byte
	seed uint64
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	c.seed = c.seed*6364136223846793005 + 1442695040888963407
	n := copy(p[:min(len(p), 1+int(c.seed>>60))], c.b)
	c.b = c.b[n:]
	return n, nil
}

// errClass names what a decode's terminal error means to a caller.
func errClass(t *testing.T, err error) string {
	switch {
	case err == io.EOF:
		return "EOF"
	case err == io.ErrUnexpectedEOF:
		return "unexpected EOF"
	case errors.Is(err, ErrProtocol):
		return "protocol"
	}
	t.Fatalf("decode failed with %v, which is none of EOF, unexpected EOF and ErrProtocol", err)
	return ""
}

// sameThroughEverySplit decodes data through three sources — whole, a byte
// at a time (every frame straddles a refill), and in random chunks — and
// requires the same frames and the same terminal error class from each.
func sameThroughEverySplit(t *testing.T, data []byte, seed uint64, decode func(*Reader) (string, error)) {
	var want []string
	for i, src := range []io.Reader{
		bytes.NewReader(data),
		iotest.OneByteReader(bytes.NewReader(data)),
		&chunkReader{b: data, seed: seed},
	} {
		r := NewReader(src)
		var got []string
		for {
			frame, err := decode(r)
			if err != nil {
				got = append(got, errClass(t, err))
				break
			}
			got = append(got, frame)
		}
		if i == 0 {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("source %d decoded %q, the whole input %q", i, got, want)
		}
	}
}

// fuzzSeeds are the malformed inputs of the tests above, and a Writer's
// stream of every command and every reply kind.
func fuzzSeeds(f *testing.F) {
	var b bytes.Buffer
	w := NewWriter(&b)
	for _, name := range []string{CmdPing, CmdLen, CmdStats, CmdPromote} {
		w.BeginCommand(1)
		w.ArgString(name)
	}
	for _, c := range []struct {
		name string
		args []int64
	}{
		{CmdGet, []int64{7}}, {CmdDel, []int64{-7}}, {CmdSet, []int64{math.MaxInt64, math.MinInt64}},
		{CmdSum, []int64{0, 99}}, {CmdScan, []int64{5, 10}}, {CmdScanCursor, []int64{5, 10, 1}},
		{CmdMCAS, []int64{1, 2, 3, 4, 5, 6}}, {CmdRepl, []int64{2, 100, 50}},
	} {
		w.BeginCommand(1 + len(c.args))
		w.ArgString(c.name)
		for _, v := range c.args {
			w.ArgInt(v)
		}
	}
	w.BeginCommand(2)
	w.ArgString(CmdGet)
	w.ArgBytes([]byte("x\r\ny"))
	w.Simple("OK")
	w.Error("ERR nope")
	w.Int(math.MinInt64)
	w.Bulk([]byte("key=1 gets=2"))
	w.BulkInt(-9007)
	w.Null()
	w.BeginArray(4)
	for _, v := range []int64{1, -1, math.MaxInt64, 0} {
		w.Int(v)
	}
	w.BeginArray(0)
	w.Flush()
	f.Add(b.Bytes(), uint64(1))
	for i, in := range append(slices.Clone(malformedFrames), malformedReplies...) {
		f.Add([]byte(in), uint64(i))
	}
}

// FuzzReadCommand: a request stream decodes to the same commands, and ends
// in the same class of error, however it is split into reads.
func FuzzReadCommand(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		var cmd Command
		sameThroughEverySplit(t, data, seed, func(r *Reader) (string, error) {
			err := r.ReadCommand(&cmd)
			return fmt.Sprintf("%q", cmd.Args), err
		})
	})
}

// FuzzReadReply: the same for a reply stream.
func FuzzReadReply(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		var rep Reply
		sameThroughEverySplit(t, data, seed, func(r *Reader) (string, error) {
			err := r.ReadReply(&rep)
			return fmt.Sprintf("%c %d %q %q %t %v", rep.Kind, rep.Int, rep.Line, rep.Bulk, rep.Bulk == nil, rep.Array), err
		})
	})
}

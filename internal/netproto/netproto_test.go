package netproto

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

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

// TestMalformedArrayReplies: array framing violations on the reply stream
// are hard errors, same as command-side violations.
func TestMalformedArrayReplies(t *testing.T) {
	cases := []string{
		"*2\r\n:1\r\n",         // truncated mid-array
		"*1\r\n$1\r\n5\r\n",    // bulk element in an integer-only array
		"*-1\r\n",              // negative element count
		"*1\r\n:abc\r\n",       // non-numeric element
		"*100000000000000\r\n", // element count overflow
	}
	for _, in := range cases {
		r := NewReader(strings.NewReader(in))
		var rep Reply
		if err := r.ReadReply(&rep); err == nil || err == io.EOF {
			t.Fatalf("input %.40q: err = %v, want protocol error", in, err)
		}
	}
}

// TestMalformedFrames: every framing violation must be a hard error (the
// connection's framing is lost) rather than a silent mis-parse.
func TestMalformedFrames(t *testing.T) {
	cases := []string{
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
	}
	for _, in := range cases {
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
	_ = r.ReadCommand(&cmd) // size cmd's buffers for this reader's frames
	reader.Seek(0, io.SeekStart)
	allocs := testing.AllocsPerRun(50, func() {
		reader.Seek(0, io.SeekStart)
		r.br.Reset(reader)
		for i := 0; i < frames; i++ {
			if err := r.ReadCommand(&cmd); err != nil {
				t.Fatal(err)
			}
		}
	})
	// One alloc of slack is tolerated (Args header growth on odd sizes);
	// what must not happen is per-frame or per-arg allocation.
	if allocs > 1 {
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
		r.br.Reset(reader)
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

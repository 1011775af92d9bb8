package netserver

import (
	"math"
	"slices"
	"strings"
	"testing"

	"mvgc/internal/netclient"
	"mvgc/internal/netproto"
)

// TestScannerLargePage: a Scanner asked for pages larger than one SCANC
// reply can carry fetches netproto.MaxScanPage entries at a time and still
// walks every key in order.
func TestScannerLargePage(t *testing.T) {
	const n = 5000
	s, addr := startServer(t, Config{Shards: 2})
	defer s.Close()
	for k := int64(0); k < n; k++ {
		if err := s.DB().Insert(k, -k); err != nil {
			t.Fatal(err)
		}
	}
	c, err := netclient.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc := c.Scanner(0, 4096)
	next := int64(0)
	for sc.Next() {
		if e := sc.Entry(); e.Key != next || e.Val != -next {
			t.Fatalf("entry %d = %+v, want key %d", next, e, next)
		}
		next++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("Scanner(0, 4096): %v after %d entries", err, next)
	}
	if next != n {
		t.Fatalf("Scanner(0, 4096) walked %d keys, want %d", next, n)
	}
}

// TestMCASOverFrameBound: an MCAS with more keys than one frame can carry
// fails on the client, before it is encoded, and the connection stays
// usable.
func TestMCASOverFrameBound(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2})
	defer s.Close()
	c, err := netclient.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	most := (netproto.MaxArgs - 1) / 3
	for _, keys := range []int{most, most + 1, 1400} {
		ks, es, ns := make([]int64, keys), make([]int64, keys), make([]int64, keys)
		for i := range ks {
			ks[i], es[i], ns[i] = int64(i), 1, 2 // absent keys: no swap
		}
		ok, err := c.MCAS(ks, es, ns)
		if keys <= most && (ok || err != nil) {
			t.Fatalf("MCAS of %d keys = (%v, %v), want (false, nil)", keys, ok, err)
		}
		if keys > most && (err == nil || !strings.Contains(err.Error(), "frame bound")) {
			t.Fatalf("MCAS of %d keys = (%v, %v), want the frame-bound error", keys, ok, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("PING after an MCAS of %d keys: %v", keys, err)
		}
	}
}

// TestScannerPageBoundary: a range that ends exactly on a page boundary
// costs the Scanner one empty page, and it still visits every key once.
func TestScannerPageBoundary(t *testing.T) {
	const n, chunk = 300, 100
	s, addr := startServer(t, Config{Shards: 2})
	defer s.Close()
	for k := int64(0); k < n; k++ {
		if err := s.DB().Insert(k, -k); err != nil {
			t.Fatal(err)
		}
	}
	c, err := netclient.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc := c.Scanner(0, chunk)
	next := int64(0)
	for sc.Next() {
		if e := sc.Entry(); e.Key != next || e.Val != -next {
			t.Fatalf("entry %d = %+v, want key %d", next, e, next)
		}
		next++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("Scanner(0, %d) walked %d keys, want %d", chunk, next, n)
	}
	if sc.Next() {
		t.Fatal("Next after the end returned true")
	}
}

// TestScannerMaxKey: a walk whose page ends at math.MaxInt64 stops there;
// the key after it would wrap to math.MinInt64 and start over.
func TestScannerMaxKey(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2})
	defer s.Close()
	for _, k := range []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64} {
		if err := s.DB().Insert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	c, err := netclient.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for chunk := 1; chunk <= 4; chunk++ { // 1 and 3 end a full page at MaxInt64
		var got []int64
		sc := c.Scanner(math.MaxInt64-2, chunk)
		for sc.Next() && len(got) < 10 {
			got = append(got, sc.Entry().Key)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if want := []int64{math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64}; !slices.Equal(got, want) {
			t.Fatalf("Scanner(MaxInt64-2, %d) walked %v, want %v", chunk, got, want)
		}
	}
}

// TestUnknownCommand: a command the server does not know, here SCANC, is
// answered -ERR unknown command, and the connection goes on serving.
func TestUnknownCommand(t *testing.T) {
	s, err := New(Config{Shards: 2, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.DB().Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	cli := pipeConn(t, s)
	w := netproto.NewWriter(cli)
	w.BeginCommand(4)
	w.ArgString("SCANC")
	w.ArgInt(0)
	w.ArgInt(10)
	w.ArgInt(0)
	encGet(w, 1)
	sent := make(chan error, 1)
	go func() { sent <- w.Flush() }()
	r := netproto.NewReader(cli)
	var rep netproto.Reply
	if err := r.ReadReply(&rep); err != nil {
		t.Fatal(err)
	}
	if want := `ERR unknown command "SCANC"`; rep.Kind != netproto.KindError || string(rep.Line) != want {
		t.Fatalf("SCANC: kind %q line %q, want -%s", rep.Kind, rep.Line, want)
	}
	wantValue(t, r, "GET after SCANC", 10)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestArgumentErrors pins each command's reply to a wrong argument count, a
// malformed integer and an out-of-range SCAN count, and that the connection
// serves on after all of them.
func TestArgumentErrors(t *testing.T) {
	s, err := New(Config{Shards: 2, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const arity, bad = "ERR wrong number of arguments", "ERR bad integer"
	const mcas = "ERR usage: MCAS <key> <expect> <new> [...]"
	cases := []struct{ cmd, want string }{
		{"GET", arity}, {"GET 1 2", arity}, {"GET x", bad},
		{"SET 1", arity}, {"SET 1 2 3", arity}, {"SET 1 x", bad}, {"SET x 1", bad},
		{"DEL", arity}, {"DEL 1 2", arity}, {"DEL x", bad},
		{"SUM 1", arity}, {"SUM x 1", bad}, {"SUM 1 x", bad},
		{"SCAN 0", arity}, {"SCAN 0 1 2", arity}, {"SCAN x 1", bad}, {"SCAN 0 x", bad},
		{"SCAN 0 -1", "ERR scan count must be in [0, 2048]"},
		{"SCAN 0 2049", "ERR scan count must be in [0, 2048]"},
		{"MCAS 1 2", mcas}, {"MCAS 1 2 3 4", mcas}, {"MCAS 1 2 x", bad}, {"MCAS 1 2 3 4 5 x", bad},
	}
	cli := pipeConn(t, s)
	w := netproto.NewWriter(cli)
	for _, c := range cases {
		args := strings.Fields(c.cmd)
		w.BeginCommand(len(args))
		for _, a := range args {
			w.ArgString(a)
		}
	}
	encBare(w, netproto.CmdPing)
	sent := make(chan error, 1)
	go func() { sent <- w.Flush() }()
	r := netproto.NewReader(cli)
	var rep netproto.Reply
	for _, c := range cases {
		if err := r.ReadReply(&rep); err != nil {
			t.Fatalf("%s: %v", c.cmd, err)
		}
		if rep.Kind != netproto.KindError || string(rep.Line) != c.want {
			t.Fatalf("%s: kind %q line %q, want -%s", c.cmd, rep.Kind, rep.Line, c.want)
		}
	}
	if err := r.ReadReply(&rep); err != nil || rep.Kind != netproto.KindSimple || string(rep.Line) != "PONG" {
		t.Fatalf("PING after the errors: kind %q line %q, %v", rep.Kind, rep.Line, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

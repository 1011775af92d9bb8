package netserver

import (
	"bytes"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"mvgc"
	"mvgc/internal/netclient"
	"mvgc/internal/netproto"
	"mvgc/internal/wal"
)

// pipeConn serves one end of an unbuffered net.Pipe and returns the other.
// A Write on it returns when the server's read loop has taken the bytes, and
// the read loop takes one Write whole (its buffer is far larger), so a burst
// written at once is, deterministically, a burst "already buffered".
func pipeConn(t *testing.T, s *Server) net.Conn {
	t.Helper()
	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close() })
	cli.SetDeadline(time.Now().Add(20 * time.Second))
	s.serveWG.Add(1)
	go s.handle(srv)
	return cli
}

func encGet(w *netproto.Writer, k int64) {
	w.BeginCommand(2)
	w.ArgString(netproto.CmdGet)
	w.ArgInt(k)
}

func encSet(w *netproto.Writer, k, v int64) {
	w.BeginCommand(3)
	w.ArgString(netproto.CmdSet)
	w.ArgInt(k)
	w.ArgInt(v)
}

func encBare(w *netproto.Writer, name string) {
	w.BeginCommand(1)
	w.ArgString(name)
}

// wantValue reads one reply and requires GET's encoding of v.
func wantValue(t *testing.T, r *netproto.Reader, what string, v int64) {
	t.Helper()
	var rep netproto.Reply
	if err := r.ReadReply(&rep); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := strconv.FormatInt(v, 10); rep.Kind != netproto.KindBulk || string(rep.Bulk) != want {
		t.Fatalf("%s: kind %q bulk %q line %q, want $%s", what, rep.Kind, rep.Bulk, rep.Line, want)
	}
}

// TestGetRunBackpressure: 64 GETs that arrive as one burst at a connection
// allowed 4 outstanding responses.  The queued run holds leased slots the
// writer waits on, so a lease that blocked before answering the run would
// wedge the connection; instead every reply arrives, in request order, and
// STATS shows the GETs went out in runs no longer than the pipeline.
func TestGetRunBackpressure(t *testing.T) {
	const n = 64
	s, err := New(Config{Shards: 2, MaxConns: 2, MaxPipeline: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := int64(0); k < n; k += 2 { // odd keys stay absent
		if err := s.DB().Insert(k, k+500); err != nil {
			t.Fatal(err)
		}
	}
	cli := pipeConn(t, s)
	var burst bytes.Buffer
	w := netproto.NewWriter(&burst)
	for k := int64(0); k < n; k++ {
		encGet(w, k)
	}
	encBare(w, netproto.CmdStats)
	w.Flush()
	sent := make(chan error, 1)
	go func() { // the read loop stalls mid-burst until replies are read
		_, err := cli.Write(burst.Bytes())
		sent <- err
	}()
	r := netproto.NewReader(cli)
	var rep netproto.Reply
	for k := int64(0); k < n; k++ {
		if k%2 == 0 {
			wantValue(t, r, "GET "+strconv.FormatInt(k, 10), k+500)
		} else if err := r.ReadReply(&rep); err != nil || rep.Kind != netproto.KindBulk || rep.Bulk != nil {
			t.Fatalf("GET %d: kind %q bulk %q (%v), want the null bulk", k, rep.Kind, rep.Bulk, err)
		}
	}
	if err := r.ReadReply(&rep); err != nil {
		t.Fatal(err)
	}
	stats := string(rep.Bulk)
	if gets := statInt(t, stats, "gets"); gets != n {
		t.Errorf("gets=%d, want %d", gets, n)
	}
	if runs := statInt(t, stats, "get_runs"); runs < n/4 || runs >= n {
		t.Errorf("get_runs=%d: want runs of 2 to 4 GETs, so %d to %d", runs, n/4, n-1)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestGetRunBoundaries pins where a run ends.  One burst holds
// GET GET SET GET GET PING: the SET splits the GETs into two runs of two —
// counted by STATS — and the GETs ahead of it are dispatched ahead of it, so
// they read the old value however fast the combiner is.  Then GET GET and a
// malformed frame: both GETs are answered before the connection stops.
func TestGetRunBoundaries(t *testing.T) {
	s, err := New(Config{Shards: 2, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.DB().Insert(7, 70); err != nil {
		t.Fatal(err)
	}
	cli := pipeConn(t, s)
	r := netproto.NewReader(cli)
	var rep netproto.Reply
	var burst bytes.Buffer
	w := netproto.NewWriter(&burst)
	send := func() {
		t.Helper()
		w.Flush()
		if _, err := cli.Write(burst.Bytes()); err != nil {
			t.Fatal(err)
		}
		burst.Reset()
	}

	const rounds = 200
	for i := int64(1); i <= rounds; i++ {
		old, next := 70*i, 70*(i+1)
		encGet(w, 7)
		encGet(w, 7)
		encSet(w, 7, next)
		encGet(w, 7)
		encGet(w, 7)
		encBare(w, netproto.CmdPing)
		send()
		// The previous round's SET was acknowledged before this burst left.
		wantValue(t, r, "GET before the SET", old)
		wantValue(t, r, "GET before the SET", old)
		if err := r.ReadReply(&rep); err != nil || string(rep.Line) != "OK" {
			t.Fatalf("SET: %q (%v)", rep.Line, err)
		}
		for j := 0; j < 2; j++ { // dispatched after the SET, maybe before its commit
			if err := r.ReadReply(&rep); err != nil {
				t.Fatal(err)
			}
			if got := string(rep.Bulk); got != strconv.FormatInt(old, 10) && got != strconv.FormatInt(next, 10) {
				t.Fatalf("GET after the SET: %q, want %d or %d", got, old, next)
			}
		}
		if err := r.ReadReply(&rep); err != nil || string(rep.Line) != "PONG" {
			t.Fatalf("PING: %q (%v)", rep.Line, err)
		}
	}
	encBare(w, netproto.CmdStats)
	send()
	if err := r.ReadReply(&rep); err != nil {
		t.Fatal(err)
	}
	stats := string(rep.Bulk)
	if runs, gets := statInt(t, stats, "get_runs"), statInt(t, stats, "gets"); runs != 2*rounds || gets != 4*rounds {
		t.Errorf("get_runs=%d gets=%d, want %d runs of two GETs", runs, gets, 2*rounds)
	}

	encGet(w, 7)
	encGet(w, 8)
	w.Flush()
	burst.WriteString("*1\r\n?3\r\nGET\r\n") // a bulk header that is none
	send()
	wantValue(t, r, "GET ahead of the malformed frame", 70*(rounds+1))
	if err := r.ReadReply(&rep); err != nil || rep.Kind != netproto.KindBulk || rep.Bulk != nil {
		t.Fatalf("GET of an absent key ahead of the malformed frame: kind %q bulk %q (%v)", rep.Kind, rep.Bulk, err)
	}
	if err := r.ReadReply(&rep); err != io.EOF {
		t.Fatalf("after the malformed frame: %v, want the connection closed", err)
	}
}

// TestBadArgumentInsideRun: a malformed GET or SET arrives while a run of
// its own kind is queued, with slots leased and not yet filled.  Its -ERR
// must not be written ahead of them, nor let the writer past them: one burst
// of GET 1, GET x, GET 2, SET 3 4, SET y 1, SET 5 6, 200 times over, comes
// back in request order with -ERR at the two malformed positions.
func TestBadArgumentInsideRun(t *testing.T) {
	const rounds = 200
	s, err := New(Config{Shards: 2, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := int64(1); k <= 2; k++ {
		if err := s.DB().Insert(k, 10*k); err != nil {
			t.Fatal(err)
		}
	}
	cli := pipeConn(t, s)
	var burst bytes.Buffer
	w := netproto.NewWriter(&burst)
	for i := 0; i < rounds; i++ {
		encGet(w, 1)
		w.BeginCommand(2)
		w.ArgString(netproto.CmdGet)
		w.ArgString("x")
		encGet(w, 2)
		encSet(w, 3, 4)
		w.BeginCommand(3)
		w.ArgString(netproto.CmdSet)
		w.ArgString("y")
		w.ArgInt(1)
		encSet(w, 5, 6)
	}
	w.Flush()
	sent := make(chan error, 1)
	go func() { // deeper than MaxPipeline: the read loop stalls until replies are read
		_, err := cli.Write(burst.Bytes())
		sent <- err
	}()
	want := []struct {
		kind byte
		text string
	}{
		{netproto.KindBulk, "10"},
		{netproto.KindError, "ERR bad integer"},
		{netproto.KindBulk, "20"},
		{netproto.KindSimple, "OK"},
		{netproto.KindError, "ERR bad integer"},
		{netproto.KindSimple, "OK"},
	}
	r := netproto.NewReader(cli)
	var rep netproto.Reply
	for i := 0; i < rounds; i++ {
		for j, wt := range want {
			if err := r.ReadReply(&rep); err != nil {
				t.Fatalf("round %d reply %d: %v", i, j, err)
			}
			got := string(rep.Line)
			if rep.Kind == netproto.KindBulk {
				got = string(rep.Bulk)
			}
			if rep.Kind != wt.kind || got != wt.text {
				t.Fatalf("round %d reply %d: %q, want %q", i, j, got, wt.text)
			}
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for k := int64(3); k <= 5; k += 2 {
		if v, ok := s.DB().Get(k); !ok || v != k+1 {
			t.Fatalf("acknowledged SET %d not in the store: %d %v", k, v, ok)
		}
	}
}

// TestUndurableWriteNeverAcked: once the log is poisoned a SET is answered
// -ERR, never +OK — and so is an MCAS on the same connection, which must
// not report :1 (or :0) for a transaction that is not durable or never ran.
func TestUndurableWriteNeverAcked(t *testing.T) {
	ffs := wal.NewFaultFS(wal.NewMemFS())
	s, addr := startServer(t, Config{Shards: 2, MaxConns: 2, WAL: mvgc.WALOptions{Dir: "wal", FS: ffs}})
	defer s.Close()
	c, err := netclient.Dial(addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set(1, 10); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.MCAS([]int64{1}, []int64{10}, []int64{11}); err != nil || !ok {
		t.Fatalf("MCAS on a healthy log: %v %v", ok, err)
	}
	for op := ffs.Ops() + 1; op < ffs.Ops()+200; op++ { // every write-side op fails from here on
		ffs.Script(op, wal.FaultErr)
	}
	if err := c.Set(2, 20); err == nil || !strings.Contains(err.Error(), "ERR") {
		t.Fatalf("SET on a failing log: %v, want -ERR", err)
	}
	ok, err := c.MCAS([]int64{1}, []int64{11}, []int64{12})
	if err == nil || !strings.Contains(err.Error(), "ERR") {
		t.Fatalf("MCAS on a poisoned log answered %v (%v), want -ERR", ok, err)
	}
	if ok, err = c.MCAS([]int64{1}, []int64{0}, []int64{12}); err == nil {
		t.Fatalf("failing MCAS on a poisoned log answered %v, want -ERR", ok)
	}
}

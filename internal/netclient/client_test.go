package netclient

import (
	"bytes"
	"errors"
	"math"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAbruptConnectionLoss is the regression test for a server dying with
// a pipeline in flight: a fake server acks the first few requests and then
// drops the connection.  Every outstanding Pending must complete (acked
// ones cleanly, the rest with the transport error), and — the part that
// used to hang — every operation issued after the loss must fail fast
// instead of encoding onto the dead connection.
func TestAbruptConnectionLoss(t *testing.T) {
	const acks = 5
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		// Ack the first few in-order requests, then die mid-pipeline.
		// (Replies may race ahead of the requests themselves; the
		// protocol is strictly in-order so the client pairs them up.)
		for i := 0; i < acks; i++ {
			nc.Write([]byte("+OK\r\n"))
		}
		nc.Close()
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(nc, 8)
	defer c.Close()

	const total = 100
	pend := make([]*Pending, 0, total)
	for i := 0; i < total; i++ {
		pend = append(pend, c.SetAsync(int64(i), int64(i)))
	}
	c.Flush()

	// Every pending completes; none may hang.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, p := range pend {
			err := p.Err()
			if i < acks && err != nil {
				t.Errorf("acked request %d: %v", i, err)
			}
			if i >= acks && err == nil {
				t.Errorf("request %d succeeded after connection loss", i)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pendings did not complete after connection loss")
	}

	// New operations fail fast with the sticky transport error.
	start := time.Now()
	if err := c.SetAsync(1, 1).Err(); err == nil {
		t.Fatal("SetAsync after loss returned nil error")
	}
	if err := c.Flush(); err == nil {
		t.Fatal("Flush after loss returned nil error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("post-loss operations took %v, want fail-fast", d)
	}
}

// scriptConn is a net.Conn the tests script: every Write is recorded as
// one element of writes (one element = one write(2) on a real socket), a
// gate can hold Writes, and Read serves what reply feeds it.
type scriptConn struct {
	net.Conn // nil: the client calls Read, Write and Close only

	entered chan struct{} // one token as each Write begins
	gate    chan struct{} // non-nil: a Write waits for a token (or close) before returning
	replies chan []byte
	closed  chan struct{}
	once    sync.Once

	mu     sync.Mutex
	writes [][]byte
	werr   error // returned by every Write when set
	rest   []byte
}

func newScriptConn(gated bool) *scriptConn {
	sc := &scriptConn{
		// Far more tokens than any test makes Writes: a Write never blocks here.
		entered: make(chan struct{}, 1<<16),
		// Every test feeds a handful of reply chunks and never blocks doing so.
		replies: make(chan []byte, 64),
		closed:  make(chan struct{}),
	}
	if gated {
		sc.gate = make(chan struct{})
	}
	return sc
}

var errScriptClosed = errors.New("scriptConn: closed")

func (sc *scriptConn) Write(p []byte) (int, error) {
	sc.mu.Lock()
	err := sc.werr
	if err == nil {
		sc.writes = append(sc.writes, append([]byte(nil), p...))
	}
	sc.mu.Unlock()
	if err != nil {
		return 0, err
	}
	sc.entered <- struct{}{}
	if sc.gate != nil {
		select {
		case <-sc.gate:
		case <-sc.closed:
			return 0, errScriptClosed
		}
	}
	return len(p), nil
}

func (sc *scriptConn) Read(p []byte) (int, error) {
	if len(sc.rest) == 0 {
		select {
		case sc.rest = <-sc.replies:
		case <-sc.closed:
			return 0, errScriptClosed
		}
	}
	n := copy(p, sc.rest)
	sc.rest = sc.rest[n:]
	return n, nil
}

func (sc *scriptConn) Close() error {
	sc.once.Do(func() { close(sc.closed) })
	return nil
}

// reply feeds n copies of one reply frame to the client's reader.
func (sc *scriptConn) reply(frame string, n int) {
	sc.replies <- bytes.Repeat([]byte(frame), n)
}

// written returns a copy of the Writes so far.
func (sc *scriptConn) written() [][]byte {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([][]byte(nil), sc.writes...)
}

func getFrame(key int64) string {
	k := strconv.FormatInt(key, 10)
	return "*2\r\n$3\r\nGET\r\n$" + strconv.Itoa(len(k)) + "\r\n" + k + "\r\n"
}

// await fails the test unless ch yields within the deadline.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestFlushCoalesces: requests flushed while a Write is in flight ride
// ONE further Write, in order — the client pays per burst, not per Flush.
func TestFlushCoalesces(t *testing.T) {
	const n = 100
	sc := newScriptConn(true)
	c := NewClient(sc, 2*n)
	defer c.Close()
	defer sc.Close() // releases a gated Write before Close drains

	c.GetAsync(0)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	await(t, sc.entered, "the first Write")
	var want string
	for i := int64(1); i <= n; i++ {
		c.GetAsync(i)
		if err := c.Flush(); err != nil {
			t.Fatalf("Flush %d: %v", i, err)
		}
		want += getFrame(i)
	}
	if got := len(sc.written()); got != 1 {
		t.Fatalf("%d Writes while the first is in flight, want 1", got)
	}
	sc.gate <- struct{}{}
	await(t, sc.entered, "the second Write")
	ws := sc.written()
	if len(ws) != 2 {
		t.Fatalf("%d Writes, want 2", len(ws))
	}
	if string(ws[0]) != getFrame(0) {
		t.Fatalf("first Write %q", ws[0])
	}
	if string(ws[1]) != want {
		t.Fatalf("second Write carries %d bytes, want the %d of all %d frames in order", len(ws[1]), len(want), n)
	}
	t.Logf("%d Flushes → %d Writes", n+1, len(ws))
}

// TestWriteErrorPoisons: a failed socket write surfaces on every
// outstanding Pending and on the next Flush and operation.
func TestWriteErrorPoisons(t *testing.T) {
	sc := newScriptConn(false)
	boom := errors.New("boom")
	sc.werr = boom
	c := NewClient(sc, 16)
	defer c.Close()

	pend := []*Pending{c.SetAsync(1, 1), c.GetAsync(2), c.LenAsync()}
	c.Flush() //nolint:errcheck // the hand-off may or may not see the failure yet
	for i, p := range pend {
		done := make(chan error, 1)
		go func() { done <- p.Err() }()
		select {
		case err := <-done:
			if !errors.Is(err, boom) {
				t.Fatalf("pending %d: %v, want the write error", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("pending %d hung after the write error", i)
		}
	}
	if err := c.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush after the write error: %v", err)
	}
	if err := c.GetAsync(3).Err(); !errors.Is(err, boom) {
		t.Fatalf("op after the write error: %v", err)
	}
	if _, _, err := c.Get(4); !errors.Is(err, boom) {
		t.Fatalf("sync op after the write error: %v", err)
	}
}

// TestCloseDrains: Close delivers everything encoded before it — flushed
// or not — and leaves neither the flusher nor the reader behind.
func TestCloseDrains(t *testing.T) {
	const n = 1000
	before := runtime.NumGoroutine()
	sc := newScriptConn(false)
	c := NewClient(sc, 2*n)
	var want string
	for i := int64(0); i < n; i++ {
		c.GetAsync(i)
		want += getFrame(i)
		if i == n/2 {
			c.Flush()
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := string(bytes.Join(sc.written(), nil)); got != want {
		t.Fatalf("Close delivered %d bytes, want %d", len(got), len(want))
	}
	if err := c.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v", err)
	}
	// Close waited for both goroutines to return; the runtime may take a
	// moment longer to retire them.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewClient", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStalledPeerBoundsBuffer: against a peer that stops reading, the
// encoder blocks once the outbox and its own buffer are full; nothing
// grows.
func TestStalledPeerBoundsBuffer(t *testing.T) {
	sc := newScriptConn(true)
	c := NewClient(sc, 1<<20) // the window must not be what stops the encoder
	var issued atomic.Int64
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for i := int64(0); ; i++ {
			c.GetAsync(1e9 + i) // fixed-width keys: every frame is the same size
			if c.Flush() != nil {
				return
			}
			issued.Add(1)
		}
	}()
	await(t, sc.entered, "the first Write")
	// The encoder is blocked when the count stops moving.
	var n int64
	for stable := 0; stable < 5; {
		time.Sleep(10 * time.Millisecond)
		if m := issued.Load(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	frame := int64(len(getFrame(1e9)))
	// The half in flight, the half filling, and the encoder's own buffer.
	if limit := int64(2*outboxCap + encoderBuf); n*frame > limit+frame {
		t.Fatalf("%d bytes buffered against a stalled peer, want ≤ %d", n*frame, limit)
	}
	if n*frame < outboxCap {
		t.Fatalf("encoder stopped after only %d bytes", n*frame)
	}
	if got := len(sc.written()); got != 1 {
		t.Fatalf("%d Writes against a stalled peer, want 1", got)
	}
	sc.Close() // the blocked Write fails, which poisons the client and frees the encoder
	await(t, stopped, "the blocked encoder to fail")
	c.Close()
}

// TestWindowFullDuringWrite: an async call that finds the window full
// while the flusher is mid-Write hands its bytes off and waits for the
// reader, and neither of those needs the lock it holds.
func TestWindowFullDuringWrite(t *testing.T) {
	const depth, n = 4, 64
	sc := newScriptConn(true)
	c := NewClient(sc, depth)
	defer c.Close()
	defer sc.Close()

	c.SetAsync(0, 0)
	c.Flush()
	await(t, sc.entered, "the first Write")
	pend := make(chan *Pending, n)
	go func() {
		defer close(pend)
		for i := int64(1); i <= n; i++ {
			pend <- c.SetAsync(i, i) // blocks in enqueue from the fifth on
		}
	}()
	go func() { // the peer: lets every Write through and acks every request
		sc.reply("+OK\r\n", n+1)
		for {
			select {
			case sc.gate <- struct{}{}:
			case <-sc.closed:
				return
			}
		}
	}()
	got := 0
	deadline := time.After(10 * time.Second)
	for {
		select {
		case p, ok := <-pend:
			if !ok {
				if got != n {
					t.Fatalf("%d of %d requests issued", got, n)
				}
				return
			}
			c.Flush()
			if err := p.Err(); err != nil {
				t.Fatalf("request %d: %v", got+1, err)
			}
			got++
		case <-deadline:
			t.Fatalf("deadlock: %d of %d requests issued", got, n)
		}
	}
}

// TestPendingPayloads: every reply shape reads back the same whether it
// fits a Pending's inline bytes or not, for waiters that arrive before the
// reply (several on one Pending) and after it.
func TestPendingPayloads(t *testing.T) {
	sc := newScriptConn(false)
	c := NewClient(sc, 16)
	defer c.Close()

	long := strings.Repeat("x", 2*len(Pending{}.small))
	edge := strings.Repeat("y", len(Pending{}.small))
	pend := []*Pending{
		c.GetAsync(1), c.GetAsync(2), c.GetAsync(3), c.LenAsync(), c.PingAsync(),
		c.StatsAsync(), c.StatsAsync(), c.SetAsync(1, 1), c.SetAsync(1, 1), c.ScanAsync(0, 2),
	}
	c.Flush()
	// Waiters that find the reply missing: all must be released.
	var early sync.WaitGroup
	for i := 0; i < 4; i++ {
		early.Add(1)
		go func() {
			defer early.Done()
			if v, ok, err := pend[0].Value(); err != nil || !ok || v != -math.MaxInt64 {
				t.Errorf("early waiter: %d %v %v", v, ok, err)
			}
		}()
	}
	for len(sc.written()) == 0 { // the requests are out, so the waiters above had their head start
		time.Sleep(time.Millisecond)
	}
	sc.replies <- []byte("$20\r\n-9223372036854775807\r\n$-1\r\n$3\r\nabc\r\n:-42\r\n+PONG\r\n" +
		"$" + strconv.Itoa(len(long)) + "\r\n" + long + "\r\n" +
		"$" + strconv.Itoa(len(edge)) + "\r\n" + edge + "\r\n" +
		"-ERR no\r\n-ERR " + long + "\r\n*4\r\n:1\r\n:10\r\n:2\r\n:20\r\n")
	early.Wait()

	if v, ok, err := pend[0].Value(); err != nil || !ok || v != -math.MaxInt64 {
		t.Errorf("late waiter: %d %v %v", v, ok, err)
	}
	if _, ok, err := pend[1].Value(); err != nil || ok {
		t.Errorf("null bulk: present=%v err=%v", ok, err)
	}
	if _, _, err := pend[2].Value(); err == nil {
		t.Error("non-numeric bulk parsed as a value")
	}
	if n, err := pend[3].Int(); err != nil || n != -42 {
		t.Errorf("int reply: %d %v", n, err)
	}
	if s, err := pend[3].Text(); err != nil || s != "" {
		t.Errorf("int reply read as text: %q %v", s, err)
	}
	for i, want := range map[int]string{4: "PONG", 5: long, 6: edge} {
		if s, err := pend[i].Text(); err != nil || s != want {
			t.Errorf("text reply %d: %q %v", i, s, err)
		}
	}
	for i, want := range map[int]string{7: "ERR no", 8: "ERR " + long} {
		if err := pend[i].Err(); err == nil || err.Error() != want {
			t.Errorf("error reply %d: %v", i, err)
		}
	}
	if es, err := pend[9].Entries(); err != nil || len(es) != 2 || es[1] != (Entry{2, 20}) {
		t.Errorf("array reply: %v %v", es, err)
	}
	if _, err := pend[9].Int(); err == nil {
		t.Error("array reply read as an int")
	}
}

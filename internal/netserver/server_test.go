package netserver

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvgc"
	"mvgc/internal/netclient"
	"mvgc/internal/netproto"
	"mvgc/internal/wal"
)

// startServer brings up a real listener on a random loopback port and
// returns the server plus its dialable address.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	return s, ln.Addr().String()
}

// statInt extracts one counter from a STATS reply.
func statInt(t *testing.T, stats, key string) int64 {
	t.Helper()
	for _, f := range strings.Fields(stats) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("STATS field %q: %v", f, err)
			}
			return n
		}
	}
	t.Fatalf("STATS reply %q lacks %q", stats, key)
	return 0
}

// TestServerCommands drives every command synchronously over a real
// socket.
func TestServerCommands(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2, MaxConns: 4})
	defer s.Shutdown()

	c, err := netclient.Dial(addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("PING: %v", err)
	}
	for k := int64(1); k <= 10; k++ {
		if err := c.Set(k, k*100); err != nil {
			t.Fatalf("SET %d: %v", k, err)
		}
	}
	if v, ok, err := c.Get(7); err != nil || !ok || v != 700 {
		t.Fatalf("GET 7 = (%d, %v, %v), want (700, true, nil)", v, ok, err)
	}
	if _, ok, err := c.Get(99); err != nil || ok {
		t.Fatalf("GET 99 present=%v err=%v, want absent", ok, err)
	}
	if n, err := c.Len(); err != nil || n != 10 {
		t.Fatalf("LEN = (%d, %v), want 10", n, err)
	}
	// sum(100..1000 step 100) = 5500
	if sum, err := c.Sum(1, 10); err != nil || sum != 5500 {
		t.Fatalf("SUM 1 10 = (%d, %v), want 5500", sum, err)
	}
	if err := c.Del(3); err != nil {
		t.Fatalf("DEL: %v", err)
	}
	if _, ok, _ := c.Get(3); ok {
		t.Fatal("GET 3 still present after DEL")
	}
	// Both ends of the int64 range cross the wire in both directions, as
	// keys and as values.
	for _, kv := range [][2]int64{{math.MinInt64, math.MaxInt64}, {math.MaxInt64, math.MinInt64}} {
		if err := c.Set(kv[0], kv[1]); err != nil {
			t.Fatalf("SET %d %d: %v", kv[0], kv[1], err)
		}
		if v, ok, err := c.Get(kv[0]); err != nil || !ok || v != kv[1] {
			t.Fatalf("GET %d = (%d, %v, %v), want %d", kv[0], v, ok, err, kv[1])
		}
		if err := c.Del(kv[0]); err != nil {
			t.Fatalf("DEL %d: %v", kv[0], err)
		}
	}

	// MCAS: wrong expectation fails and writes nothing, right one swaps all.
	if ok, err := c.MCAS([]int64{1, 2}, []int64{100, 999}, []int64{-1, -2}); err != nil || ok {
		t.Fatalf("MCAS with bad expect = (%v, %v), want (false, nil)", ok, err)
	}
	if v, _, _ := c.Get(1); v != 100 {
		t.Fatalf("failed MCAS wrote key 1: %d", v)
	}
	if ok, err := c.MCAS([]int64{1, 2}, []int64{100, 200}, []int64{111, 222}); err != nil || !ok {
		t.Fatalf("MCAS = (%v, %v), want (true, nil)", ok, err)
	}
	if v, _, _ := c.Get(2); v != 222 {
		t.Fatalf("MCAS swapped key 2 to %d, want 222", v)
	}
	// Recycled-slot regression: a failing MCAS right after a successful one
	// reuses the success's response slot, which must not echo its stale :1.
	if ok, err := c.MCAS([]int64{1, 2}, []int64{100, 222}, []int64{0, 0}); err != nil || ok {
		t.Fatalf("stale-expect MCAS on recycled slot = (%v, %v), want (false, nil)", ok, err)
	}

	// SCAN streams ascending keys across shards; DEL'd key 3 must be gone.
	entries, err := c.Scan(1, 100)
	if err != nil {
		t.Fatalf("SCAN: %v", err)
	}
	if len(entries) != 9 { // keys 1..10 minus the deleted 3
		t.Fatalf("SCAN returned %d entries, want 9", len(entries))
	}
	prev := int64(0)
	for _, e := range entries {
		if e.Key <= prev {
			t.Fatalf("SCAN out of order: %d after %d", e.Key, prev)
		}
		if e.Key == 3 {
			t.Fatal("SCAN returned the deleted key")
		}
		prev = e.Key
	}
	if entries[0].Key != 1 || entries[0].Val != 111 { // MCAS swapped 1 → 111
		t.Fatalf("SCAN[0] = %d:%d, want 1:111", entries[0].Key, entries[0].Val)
	}
	// Bounded n stops the stream early.
	if short, err := c.Scan(1, 3); err != nil || len(short) != 3 {
		t.Fatalf("SCAN 1 3 = %d entries (%v), want 3", len(short), err)
	}
	// An empty result is an empty array, not an error.
	if none, err := c.Scan(1_000_000, 10); err != nil || len(none) != 0 {
		t.Fatalf("SCAN past end = %d entries (%v), want 0", len(none), err)
	}
	// Oversized and malformed SCANs are command errors, not dropped conns.
	if _, err := c.Scan(0, maxScanEntries+1); err == nil {
		t.Fatal("oversized SCAN n accepted")
	}
	if _, err := c.Scan(0, -1); err == nil {
		t.Fatal("negative SCAN n accepted")
	}

	// Command errors keep the connection alive.
	if _, err := c.Sum(1, 2); err != nil {
		t.Fatalf("SUM after MCAS: %v", err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if got := statInt(t, stats, "shards"); got != 2 {
		t.Fatalf("STATS shards = %d, want 2", got)
	}
	if statInt(t, stats, "applied") < 11 { // 10 SETs + 1 DEL rode write runs
		t.Fatalf("STATS applied = %d, want >= 11", statInt(t, stats, "applied"))
	}
}

// TestPipelinedDeleteThenSet: a DEL and a SET of one key pipelined on one
// connection usually share a write run, so one commit; the commit must
// apply them in that order, and a GET sent after both acks reads the SET's
// value.
func TestPipelinedDeleteThenSet(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2, MaxConns: 1})
	defer s.Shutdown()
	c, err := netclient.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const rounds = 50
	lost := 0
	for round := int64(1); round <= rounds; round++ {
		del, set := c.DelAsync(7), c.SetAsync(7, round)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(del.Err(), set.Err()); err != nil {
			t.Fatal(err)
		}
		v, ok, err := c.Get(7)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != round {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("GET 7 after DEL 7, SET 7 v missed v in %d of %d rounds", lost, rounds)
	}
}

// TestPipelinedReadYourWrites: a read pipelined behind a write on the same
// connection reads that write — a GET behind SET 7 r sees r, behind DEL 7
// sees nothing, and an MCAS behind SET 7 r finds r — every round, because a
// write run is committed before the next command of another kind runs.
func TestPipelinedReadYourWrites(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2, MaxConns: 1})
	defer s.Shutdown()
	c, err := netclient.Dial(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const rounds = 200
	for _, row := range []struct {
		name  string
		round func(r int64) (ok bool, err error)
	}{
		{"SET 7 r; GET 7", func(r int64) (bool, error) {
			set, get := c.SetAsync(7, r), c.GetAsync(7)
			if err := c.Flush(); err != nil {
				return false, err
			}
			v, ok, err := get.Value()
			return ok && v == r, errors.Join(set.Err(), err)
		}},
		{"DEL 7; GET 7", func(r int64) (bool, error) {
			if err := c.Set(7, r); err != nil {
				return false, err
			}
			del, get := c.DelAsync(7), c.GetAsync(7)
			if err := c.Flush(); err != nil {
				return false, err
			}
			_, ok, err := get.Value()
			return !ok, errors.Join(del.Err(), err)
		}},
		{"SET 7 r; MCAS 7 r r+1", func(r int64) (bool, error) {
			set, cas := c.SetAsync(7, r), c.MCASAsync([]int64{7}, []int64{r}, []int64{r + 1})
			if err := c.Flush(); err != nil {
				return false, err
			}
			n, err := cas.Int()
			return n == 1, errors.Join(set.Err(), err)
		}},
	} {
		missed := 0
		for r := int64(1); r <= rounds; r++ {
			ok, err := row.round(r)
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			if !ok {
				missed++
			}
		}
		if missed > 0 {
			t.Errorf("%s: the read missed its own connection's write in %d of %d rounds", row.name, missed, rounds)
		}
	}
}

// TestPipelinedClientsCoalesce: many connections pipelining writes
// concurrently, all acknowledged writes visible, and the write runs far
// fewer than the writes.
func TestPipelinedClientsCoalesce(t *testing.T) {
	const (
		clients = 8
		perConn = 400
		depth   = 64
	)
	s, addr := startServer(t, Config{Shards: 2, MaxConns: clients})
	defer s.Shutdown()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := netclient.Dial(addr, depth)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			pend := make([]*netclient.Pending, 0, perConn)
			for i := 0; i < perConn; i++ {
				k := int64(ci*perConn + i)
				pend = append(pend, c.SetAsync(k, k))
			}
			if err := c.Flush(); err != nil {
				errs <- err
				return
			}
			for _, p := range pend {
				if err := p.Err(); err != nil {
					errs <- err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c, err := netclient.Dial(addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	total := int64(clients * perConn)
	if n, err := c.Len(); err != nil || n != total {
		t.Fatalf("LEN = (%d, %v), want %d", n, err, total)
	}
	// Every acknowledged SET must be readable: spot-check a stripe.
	for k := int64(0); k < total; k += 37 {
		if v, ok, err := c.Get(k); err != nil || !ok || v != k {
			t.Fatalf("GET %d = (%d, %v, %v)", k, v, ok, err)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	applied := statInt(t, stats, "applied")
	batches := statInt(t, stats, "batches")
	if applied < total {
		t.Fatalf("applied = %d, want >= %d", applied, total)
	}
	// The whole point: thousands of pipelined writes ride far fewer
	// combiner commits.  Be loose here (CI machines stall);
	// BenchmarkServeSweep reports the real ratio.
	if batches*4 > applied {
		t.Fatalf("no coalescing: %d write runs for %d applied writes", batches, applied)
	}
	t.Logf("coalescing: %d writes in %d commits (%.1f writes/commit)",
		applied, batches, float64(applied)/float64(batches))
	if a := s.DB().Aborts(); a != 0 {
		t.Fatalf("%d Set failures: some commit ran beside its shard's writer", a)
	}
}

// TestConsistentScanInvariant: under Config.Consistent, a SCAN rides one
// global GSN cut, so it can never observe an MCAS transfer half-applied —
// the wire-level version of the torn-scan regression.  Writers move value
// between random keys with MCAS (atomic across shards, sum-preserving);
// scanning readers assert the total never wavers.
func TestConsistentScanInvariant(t *testing.T) {
	const keys, balance = 64, 100
	s, addr := startServer(t, Config{Shards: 4, MaxConns: 8, Consistent: true})
	defer s.Shutdown()

	load, err := netclient.Dial(addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer load.Close()
	for k := int64(0); k < keys; k++ {
		if err := load.Set(k, balance); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := netclient.Dial(addr, 4)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := uint64(w)*0x9E3779B9 + 5
			for i := 0; i < 300; i++ {
				rng = rng*6364136223846793005 + 1
				a := int64(rng>>33) % keys
				b := (a + 1 + int64(rng>>17)%(keys-1)) % keys
				va, _, err1 := c.Get(a)
				vb, _, err2 := c.Get(b)
				if err1 != nil || err2 != nil {
					t.Error(err1, err2)
					return
				}
				// Stale expectations just fail the MCAS; only successful
				// swaps change state, and every one preserves the sum.
				if _, err := c.MCAS([]int64{a, b}, []int64{va, vb}, []int64{va - 1, vb + 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(stop)
	}()

	c, err := netclient.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	scans := 0
	for {
		entries, err := c.Scan(0, keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != keys {
			t.Fatalf("consistent SCAN returned %d entries, want %d", len(entries), keys)
		}
		var sum int64
		for _, e := range entries {
			sum += e.Val
		}
		if sum != keys*balance {
			t.Fatalf("consistent SCAN observed a torn transfer: sum = %d, want %d", sum, keys*balance)
		}
		scans++
		select {
		case <-stop:
			t.Logf("verified %d consistent scans against the MCAS storm", scans)
			return
		default:
		}
	}
}

// TestGracefulShutdownDrains: a reply is only written after the write's
// commit published, so every SET acknowledged before/through a graceful
// shutdown must be committed, successes must form an order-prefix
// (protocol order), and nothing may hang — even though Shutdown lands in
// the middle of a pipelined burst.
func TestGracefulShutdownDrains(t *testing.T) {
	const n = 2000
	s, addr := startServer(t, Config{Shards: 2, MaxConns: 2})

	c, err := netclient.Dial(addr, n)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pend := make([]*netclient.Pending, 0, n)
	for i := 0; i < n; i++ {
		pend = append(pend, c.SetAsync(int64(i), int64(i)))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Make sure shutdown lands mid-burst, not before the server has read
	// anything: once the first reply is back, the read loop is deep in the
	// pipeline (replies are in order, so request 0 was read first).
	if err := pend[0].Err(); err != nil {
		t.Fatalf("first SET: %v", err)
	}

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		if err := s.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	// No pending may hang: each either got its committed "+OK" or failed
	// with a transport error once the drained connection closed.
	acked := 0
	sawFailure := false
	deadline := time.After(30 * time.Second)
	for i, p := range pend {
		done := make(chan error, 1)
		go func() { done <- p.Err() }()
		select {
		case err := <-done:
			if err == nil {
				if sawFailure {
					t.Fatalf("reply %d succeeded after an earlier failure: order violated", i)
				}
				acked++
			} else {
				sawFailure = true
			}
		case <-deadline:
			t.Fatalf("pending %d neither completed nor failed: shutdown lost it", i)
		}
	}
	select {
	case <-shutdownDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if s.Conns() != 0 {
		t.Fatalf("Conns() = %d after Shutdown", s.Conns())
	}
	t.Logf("graceful shutdown: %d/%d writes acknowledged, all committed", acked, n)

	// Dialing a shut-down server must fail (listener closed).
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestAdmissionControl: more connections than MaxConns — the extras queue
// for a combiner client slot and are served as slots free, none dropped.
func TestAdmissionControl(t *testing.T) {
	const conns = 6
	s, addr := startServer(t, Config{Shards: 1, MaxConns: 2})
	defer s.Shutdown()

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := netclient.Dial(addr, 8)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := c.Set(int64(i), int64(i)); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c, err := netclient.Dial(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, err := c.Len(); err != nil || n != conns {
		t.Fatalf("LEN = (%d, %v), want %d", n, err, conns)
	}
}

// TestShutdownWALAckedPrefix is the durability contract of graceful
// shutdown: with a WAL attached, a mid-burst Shutdown drains and fsyncs
// everything it acknowledged, and a DB reopened from the same log sees
// exactly the acked prefix — nothing acked missing, nothing unacked
// present.  (Replies are strictly in order, so the acked set IS a prefix.)
func TestShutdownWALAckedPrefix(t *testing.T) {
	const n = 2000
	mem := wal.NewMemFS()
	s, addr := startServer(t, Config{
		Shards: 2, MaxConns: 2,
		WAL: mvgc.WALOptions{Dir: "wal", FS: mem},
	})

	c, err := netclient.Dial(addr, n)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pend := make([]*netclient.Pending, 0, n)
	for i := 0; i < n; i++ {
		pend = append(pend, c.SetAsync(int64(i), int64(i)*7+3))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pend[0].Err(); err != nil {
		t.Fatalf("first SET: %v", err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	acked := 0
	for _, p := range pend {
		if p.Err() == nil {
			acked++
		}
	}
	if acked == 0 || acked == n {
		t.Logf("shutdown landed at the burst boundary (acked=%d); prefix check is trivial", acked)
	}

	db, err := mvgc.OpenDB[int64, int64, int64](mvgc.DBOptions[int64]{
		Shards: 2, WAL: &mvgc.WALOptions{Dir: "wal", FS: mem},
	}, mvgc.SumAug[int64](), nil)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer db.Close()
	if got := db.Len(); got != int64(acked) {
		t.Fatalf("recovered %d keys, want exactly the %d acked", got, acked)
	}
	for i := 0; i < acked; i++ {
		v, ok := db.Get(int64(i))
		if !ok || v != int64(i)*7+3 {
			t.Fatalf("acked key %d = (%d, %v) after recovery, want (%d, true)", i, v, ok, int64(i)*7+3)
		}
	}
	t.Logf("graceful shutdown with WAL: %d/%d acked, recovered exactly", acked, n)
}

// slowSyncFS makes the next Sync after arm take delay, and reports on
// syncing when that Sync begins: a commit that stays pending that long.
type slowSyncFS struct {
	wal.FS
	delay   time.Duration
	armed   atomic.Bool
	syncing chan struct{}
}

func (fs *slowSyncFS) arm() { fs.armed.Store(true) }

func (fs *slowSyncFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	return slowSyncFile{f, fs}, err
}

func (fs *slowSyncFS) Open(name string) (wal.File, error) {
	f, err := fs.FS.Open(name)
	return slowSyncFile{f, fs}, err
}

type slowSyncFile struct {
	wal.File
	fs *slowSyncFS
}

func (f slowSyncFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		f.fs.syncing <- struct{}{}
		time.Sleep(f.fs.delay)
	}
	return f.File.Sync()
}

// TestShutdownClientNeverReads: a client that pipelines GETs and never
// reads its replies leaves the connection's writer blocked in a socket
// write once the socket buffers are full.  A graceful Shutdown must still
// return, within about drainGrace.  Beside it, a client that does read
// waits on a SET whose fsync outlasts two of drain's looks: its writer
// makes no progress either, but it is parked on the log, so the client
// must still get its +OK.
func TestShutdownClientNeverReads(t *testing.T) {
	fs := &slowSyncFS{FS: wal.NewMemFS(), delay: drainGrace * 6 / 5, syncing: make(chan struct{}, 1)}
	s, addr := startServer(t, Config{Shards: 1, MaxConns: 3, MaxPipeline: 64, WAL: mvgc.WALOptions{Dir: "wal", FS: fs}})
	c, err := netclient.Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(1, math.MaxInt64); err != nil { // the longest reply a GET has
		t.Fatal(err)
	}
	c.Close()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Pipeline GET 1 until the server stops reading — nothing accepted for
	// five write timeouts in a row: then its ring is full and its writer is
	// blocked on this socket.
	frame := []byte("*2\r\n$3\r\nGET\r\n$1\r\n1\r\n")
	burst := bytes.Repeat(frame, 512)
	sent, off := 0, 0
	for stalls := 0; stalls < 5; {
		nc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		n, err := nc.Write(burst[off:])
		sent, off = sent+n, (off+n)%len(burst)
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatal(err)
			}
		}
		if n > 0 {
			stalls = 0
		} else {
			stalls++
		}
		if sent > 256<<20 {
			t.Fatal("the server read 256 MiB of GETs without its writer blocking")
		}
	}
	t.Logf("the server stopped reading after %d KiB of GETs", sent>>10)

	fs.arm()
	if _, err := rc.Write([]byte("*3\r\n$3\r\nSET\r\n$1\r\n2\r\n$1\r\n5\r\n")); err != nil {
		t.Fatal(err)
	}
	<-fs.syncing // the SET is being made durable, its writer parked on the log

	returned := make(chan error, 1)
	start := time.Now()
	go func() { returned <- s.Shutdown() }()
	rc.SetReadDeadline(time.Now().Add(3 * drainGrace))
	reply, err := bufio.NewReader(rc).ReadString('\n')
	if err != nil || reply != "+OK\r\n" {
		t.Fatalf("the reading client's slow SET got %q, %v after %v; want +OK", reply, err, time.Since(start).Round(time.Millisecond))
	}
	select {
	case err := <-returned:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		t.Logf("Shutdown returned after %v", time.Since(start).Round(time.Millisecond))
	case <-time.After(3*drainGrace - time.Since(start)):
		t.Fatalf("Shutdown still blocked after %v on a client that never reads", 3*drainGrace)
	}
}

// TestServerKillMidPipeline force-closes the server under a deep pipeline
// (the network-level crash test): every outstanding Pending must complete
// — acked or errored, never hung — and operations issued afterwards fail
// fast on the poisoned connection.  A slow fsync keeps the writes in
// flight when the kill lands.
func TestServerKillMidPipeline(t *testing.T) {
	const n = 5000
	fs := &slowSyncFS{FS: wal.NewMemFS(), delay: 50 * time.Millisecond, syncing: make(chan struct{}, 1)}
	s, addr := startServer(t, Config{Shards: 2, MaxConns: 2, WAL: mvgc.WALOptions{Dir: "wal", FS: fs}})
	fs.arm()

	c, err := netclient.Dial(addr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pend := make([]*netclient.Pending, 0, n)
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for i := 0; i < n; i++ {
			pend = append(pend, c.SetAsync(int64(i), int64(i)))
		}
		c.Flush()
	}()

	// Kill once the pipeline is demonstrably in flight.
	time.Sleep(5 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-fed:
	case <-time.After(30 * time.Second):
		t.Fatal("submission goroutine hung after server kill")
	}

	done := make(chan struct{})
	var acked, failed int
	go func() {
		defer close(done)
		for _, p := range pend {
			if p.Err() == nil {
				acked++
			} else {
				failed++
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pendings hung after server kill")
	}
	if failed == 0 {
		t.Fatal("server kill mid-pipeline produced no client-visible failure")
	}
	start := time.Now()
	c.SetAsync(0, 0).Wait()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("post-kill op took %v, want fail-fast", d)
	}
	t.Logf("server kill: %d acked, %d failed, none hung", acked, failed)
}

// TestRingOrderAndBackpressure pipelines 10k mixed GETs and SETs far
// deeper than MaxPipeline at a server whose replies nobody reads at first:
// the read loop must stall with exactly MaxPipeline responses outstanding
// (not the ring's rounded-up length), never get further ahead while the
// client drains, and every reply must come back in request order.
func TestRingOrderAndBackpressure(t *testing.T) {
	const (
		maxPipeline = 48 // not a power of two: the ring itself has 64 slots
		total       = 10000
		getKeys     = 100
	)
	s, err := New(Config{Shards: 2, MaxConns: 2, MaxPipeline: maxPipeline})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := int64(0); k < getKeys; k++ {
		if err := s.DB().Insert(k, k+1000); err != nil {
			t.Fatal(err)
		}
	}
	// net.Pipe has no buffer.  The server's writer blocks in its first
	// flush until this side reads, and a Write here returns when the
	// server's read loop has taken the bytes — so with one request per
	// Write, consumed counts the requests the read loop has taken, of
	// which all but the one it may be holding in lease have a slot.
	cli, srv := net.Pipe()
	defer cli.Close()
	s.serveWG.Add(1)
	go s.handle(srv)
	var c *conn
	for c == nil {
		time.Sleep(time.Millisecond)
		s.mu.Lock()
		for k := range s.conns {
			c = k
		}
		s.mu.Unlock()
	}

	// Request i is SET 1000+i i when i%3 == 0, else GET i%getKeys: runs of
	// one and two, and the GETs' replies tell positions apart.
	var consumed atomic.Int64
	sent := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		w := netproto.NewWriter(&buf)
		for i := int64(0); i < total; i++ {
			if i%3 == 0 {
				w.BeginCommand(3)
				w.ArgString(netproto.CmdSet)
				w.ArgInt(1000 + i)
				w.ArgInt(i)
			} else {
				w.BeginCommand(2)
				w.ArgString(netproto.CmdGet)
				w.ArgInt(i % getKeys)
			}
			w.Flush()
			if _, err := cli.Write(buf.Bytes()); err != nil {
				sent <- err
				return
			}
			buf.Reset()
			consumed.Add(1)
		}
		sent <- nil
	}()
	// outstanding is a lower bound on leased-minus-released that is exact
	// once both loops stand still (consumed is read first: head only grows).
	outstanding := func() int64 { return consumed.Load() - 1 - int64(c.head.Load()) }

	deadline := time.Now().Add(10 * time.Second)
	for stable := 0; stable < 20; {
		if time.Now().After(deadline) {
			t.Fatalf("read loop settled at %d responses outstanding, want %d", outstanding(), maxPipeline)
		}
		time.Sleep(time.Millisecond)
		switch out := outstanding(); {
		case out > maxPipeline:
			t.Fatalf("%d responses outstanding, want ≤ %d", out, maxPipeline)
		case out == maxPipeline && c.stalled.Load():
			stable++
		default:
			stable = 0
		}
	}

	r := netproto.NewReader(cli)
	var rep netproto.Reply
	for i := int64(0); i < total; i++ {
		if err := r.ReadReply(&rep); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if i%3 == 0 {
			if rep.Kind != netproto.KindSimple || string(rep.Line) != "OK" {
				t.Fatalf("reply %d: kind %q line %q, want +OK", i, rep.Kind, rep.Line)
			}
		} else if want := strconv.FormatInt(i%getKeys+1000, 10); rep.Kind != netproto.KindBulk || string(rep.Bulk) != want {
			t.Fatalf("reply %d: kind %q bulk %q, want $%s: out of order", i, rep.Kind, rep.Bulk, want)
		}
		if out := outstanding(); out > maxPipeline {
			t.Fatalf("%d responses outstanding after reply %d, want ≤ %d", out, i, maxPipeline)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < total; i += 3 {
		if v, ok := s.DB().Get(1000 + i); !ok || v != i {
			t.Fatalf("acknowledged SET %d not in the store: %d %v", 1000+i, v, ok)
		}
	}
}

// TestRingLateCompletion: a slot completed after the writer has gone to
// sleep on it is still written; a slot whose mark the log cannot make
// durable is answered -ERR, not +OK; and the close marker ends the writer.
func TestRingLateCompletion(t *testing.T) {
	ffs := wal.NewFaultFS(wal.NewMemFS())
	s, err := New(Config{Shards: 2, MaxPipeline: 4, WAL: mvgc.WALOptions{Dir: "wal", FS: ffs}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cli, srv := net.Pipe()
	defer cli.Close()
	c := s.newConn(srv)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		c.writeLoop()
	}()
	r := bufio.NewReader(cli)
	for _, tc := range []struct {
		failLog bool // the fsync that would make the write durable fails
		want    string
	}{{false, "+OK\r\n"}, {true, "-ERR "}} {
		mark, err := s.DB().CommitEach(func(t *mvgc.DBTxn[int64, int64, int64]) { t.Insert(1, 1) })
		if err != nil || mark == 0 {
			t.Fatalf("CommitEach: mark %d, %v", mark, err)
		}
		if tc.failLog {
			for op := ffs.Ops() + 1; op < ffs.Ops()+100; op++ {
				ffs.Script(op, wal.FaultErr)
			}
		}
		sl := c.lease()
		sl.kind = respOK
		deadline := time.Now().Add(10 * time.Second)
		for sl.state.Load() != slotParked {
			if time.Now().After(deadline) {
				t.Fatal("the writer never parked on the incomplete slot")
			}
			time.Sleep(time.Millisecond)
		}
		sl.mark = mark
		go c.complete(sl) // late, from another goroutine
		cli.SetReadDeadline(time.Now().Add(10 * time.Second))
		if got, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(got, tc.want) {
			t.Fatalf("reply %q (%v), want %q", got, err, tc.want)
		}
	}
	c.closeRing()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("the writer did not exit at the close marker")
	}
}

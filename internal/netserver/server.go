// Package netserver is the pipelined binary-protocol serving layer over
// mvgc.DB: the front door that turns N sockets' traffic into the
// concurrency shape the underlying store amortizes best.
//
// Each accepted connection runs two goroutines joined by a ring of
// response slots, single-producer single-consumer:
//
//   - The read loop decodes requests (netproto) and never blocks on a
//     response.  It leases the next slot of the ring for every request,
//     which fixes the response's place on the wire.  Consecutive requests
//     of one kind that are already in the input buffer form a run, and a
//     run is executed as soon as it cannot grow without waiting: GETs as
//     one read transaction per shard (mvgc.DB.GetBatch, see getRun), SETs
//     and DELs as one commit per shard (mvgc.DB.CommitEach, see writeRun),
//     which does not wait for the log.  So a pipelined GET reads its own
//     connection's earlier writes.  MCAS runs mvgc.DB.UpdateAtomicKeys
//     inline.
//   - The writer walks the ring in order, encoding each slot once it is
//     ready, so pipelined replies come back in protocol order.  A write's
//     slot carries its run's log mark: before it encodes that +OK the
//     writer flushes what it has encoded and makes the log durable up to
//     the mark (wal.Log.CommitTo), so an acknowledged write is durable and
//     the read loop never waits on an fsync.  The writer sleeps only on the
//     slot at its own position, after flushing, and the completion of that
//     slot is the one thing that wakes it: a burst of requests costs the
//     two goroutines one scheduler interaction, not one per request.
//
// N connections × D-deep pipelines keep N×D requests in flight on 2N
// goroutines; a burst of D writes is O(shards) commits, and the writers
// of all connections share fsyncs through the log's group commit (see
// DESIGN.md, "Inside the server"; BenchmarkServeSweep measures
// commits-per-op).
//
// Backpressure is layered: a connection may have at most
// Config.MaxPipeline responses outstanding (the read loop stalls in lease
// beyond that), and Config.MaxConns bounds connections being served
// concurrently.
package netserver

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mvgc"
	"mvgc/internal/netproto"
	"mvgc/internal/repl"
)

// Config sizes a Server.  The zero value serves: GOMAXPROCS shards, 64
// connection slots, 1024-deep pipelines.
type Config struct {
	// Shards is the number of independent map shards (default GOMAXPROCS,
	// floor 1).  More shards = more parallel commits.
	Shards int
	// MaxConns bounds connections served concurrently.  Further
	// connections are accepted but wait for a slot (admission control).
	// Default 64.
	MaxConns int
	// MaxPipeline bounds one connection's outstanding responses; a read
	// loop that gets further ahead stalls until the writer catches up.
	// Default 1024.
	MaxPipeline int
	// Consistent routes the fan-out reads — SUM, LEN and SCAN — through
	// ViewConsistent, so they never observe an MCAS half-applied; plain
	// per-shard fan-out otherwise.  Point reads are unaffected
	// (single-shard reads are atomic either way).
	Consistent bool
	// WAL configures durability (mvgc.WALOptions): a non-empty Dir
	// enables the write-ahead log — every +OK'd write is durable per the
	// fsync policy, New recovers prior state from the directory before
	// serving, and CheckpointBytes checkpoints each time the log has grown
	// that much, which keeps the log (and the replication bootstrap
	// prefix) under twice that size.  The zero value disables logging
	// (purely in-memory, the default).
	WAL mvgc.WALOptions
	// Follow starts the server as a replication follower of the leader at
	// this address: it bootstraps/tails the leader's redo stream, applies
	// it continuously, answers read-only commands (writes get -READONLY),
	// and becomes a writable leader on PROMOTE (or Server.Promote).
	// Requires WAL.Dir — the follower relogs what it applies, so it is
	// itself crash-recoverable and shippable.
	Follow string
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards < 1 {
			c.Shards = 1
		}
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.MaxPipeline <= 0 {
		c.MaxPipeline = 1024
	}
}

// Server is a pipelined netproto server over one sharded DB.
type Server struct {
	cfg Config
	db  *mvgc.DB[int64, int64, int64]

	// admit holds one token per connection being served: MaxConns bounds
	// it (admission control).
	admit chan struct{}

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[*conn]struct{}
	closed bool
	doneCh chan struct{} // closed by Shutdown/Close to abort slot waiters

	serveWG sync.WaitGroup // accept loops + connection goroutines
	nconns  atomic.Int64

	// getRuns and gets count executed read runs and the GETs in them, one
	// add each per run: gets/getRuns is the mean run length.  writeRuns and
	// writes are the same for committed write runs.
	getRuns   atomic.Int64
	gets      atomic.Int64
	writeRuns atomic.Int64
	writes    atomic.Int64

	// Replication state: readOnly gates the write commands while the
	// server follows a leader; Promote clears it.  fmu serializes
	// promotion against shutdown.
	readOnly atomic.Bool
	fmu      sync.Mutex
	follower *repl.Follower
}

// New opens the sharded DB (int64 keys and values, sum-augmented so SUM is
// O(S log n)).  With Config.Follow it also starts the replication follower
// (read-only until promoted).  Close releases everything; the caller owns
// listeners (Serve) until then.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.Follow != "" && cfg.WAL.Dir == "" {
		return nil, errors.New("netserver: Follow requires WAL.Dir (the follower relogs the stream)")
	}
	var walOpts *mvgc.WALOptions
	if cfg.WAL.Dir != "" {
		walOpts = &cfg.WAL
	}
	db, err := mvgc.OpenDB[int64, int64, int64](mvgc.DBOptions[int64]{
		Shards: cfg.Shards,
		Grain:  1024,
		WAL:    walOpts,
	}, mvgc.SumAug[int64](), nil)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		db:     db,
		admit:  make(chan struct{}, cfg.MaxConns),
		conns:  make(map[*conn]struct{}),
		doneCh: make(chan struct{}),
	}
	if cfg.Follow != "" {
		s.readOnly.Store(true)
		f, err := repl.Start(repl.Config{
			Addr: cfg.Follow,
			DB:   db,
			Dir:  cfg.WAL.Dir,
			FS:   cfg.WAL.FS,
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		s.follower = f
	}
	return s, nil
}

// Promote turns a follower into a writable leader: the stream stops (its
// final position persists after a local log sync), the GSN floor set by
// replay guarantees new stamps never rewind below anything replayed or
// bootstrapped, and the write commands open up.  Idempotent; a no-op on
// a server that never followed.
func (s *Server) Promote() {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if s.follower != nil {
		s.follower.Stop()
		s.follower = nil
	}
	s.readOnly.Store(false)
}

// DB exposes the underlying store (tests and embedded servers).
func (s *Server) DB() *mvgc.DB[int64, int64, int64] { return s.db }

// Serve accepts connections on ln until the listener fails or the server
// shuts down; it returns nil after Shutdown/Close.  Multiple Serve calls
// (several listeners) are allowed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("netserver: server closed")
	}
	s.lns = append(s.lns, ln)
	s.serveWG.Add(1)
	s.mu.Unlock()
	defer s.serveWG.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.serveWG.Add(1)
		go s.handle(nc)
	}
}

// Shutdown stops the server gracefully: listeners close, every connection's
// read loop is interrupted at its next frame boundary, all responses for
// requests already read are committed, written and flushed, and only then
// is the DB closed.  No accepted request's response is dropped, except to a
// client that stops reading: a writer blocked on it across one drainGrace
// loses its socket writes (see drain), so such a client delays Shutdown by
// one to one and a half drainGrace, not for ever.
func (s *Server) Shutdown() error { return s.stop(true) }

// Close force-closes listeners and connections; in-flight responses may be
// lost (what the read loops accepted still commits, but the sockets are
// gone).  Prefer Shutdown.
func (s *Server) Close() error { return s.stop(false) }

func (s *Server) stop(graceful bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.doneCh)
	for _, ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		if graceful {
			// Wake a read loop parked in Read; everything it already
			// enqueued still drains through its writer.
			c.nc.SetReadDeadline(time.Now())
		} else {
			c.nc.Close()
		}
	}
	s.mu.Unlock()
	if graceful {
		s.drain()
	}
	s.serveWG.Wait()
	// All read loops have exited and all writers have drained: every
	// accepted write has committed and been answered.  A following server
	// also stops its stream (the final position persists after a local log
	// sync).  Close's WAL flush makes every committed write durable before
	// the log is released.
	s.fmu.Lock()
	if s.follower != nil {
		s.follower.Stop()
		s.follower = nil
	}
	s.fmu.Unlock()
	return s.db.Close()
}

// drainGrace bounds how long a graceful stop waits on a connection whose
// writer makes no progress: a client that stops reading leaves its writer
// blocked in a socket write for good, and that must not wedge Shutdown.
const drainGrace = time.Second

// drain waits for the served connections to finish, bounding the wait on
// the wire.  Every half drainGrace it looks at each connection still
// served: a writer is stuck when it has not moved since the last look and
// is not parked, on a pending response or on the log.  One stuck across two
// looks in a row — a whole drainGrace without progress, not parked at either
// look, so blocked in a write to a client that does not read — gets a write
// deadline in the past.  Its write fails, the error goes sticky, and the
// writer drains the ring without the socket, so the connection ends.  A
// writer parked on a slow commit or fsync makes no demand on the client and
// is not cut, nor one caught between its wake-up and its next move: that
// move comes long before the next look.  The hot path pays nothing for
// this: no deadline is set while the server runs.
func (s *Server) drain() {
	done := make(chan struct{})
	go func() {
		s.serveWG.Wait()
		close(done)
	}()
	type look struct {
		head  uint64
		stuck bool
	}
	seen := make(map[*conn]look)
	tick := time.NewTicker(drainGrace / 2)
	defer tick.Stop()
	for {
		s.mu.Lock()
		for c := range s.conns {
			h := c.head.Load()
			last, ok := seen[c]
			stuck := ok && last.head == h && !c.parked(h)
			if stuck && last.stuck {
				c.nc.SetWriteDeadline(time.Now())
			}
			seen[c] = look{h, stuck}
		}
		s.mu.Unlock()
		select {
		case <-done:
			return
		case <-tick.C:
		}
	}
}

// parked reports whether the writer at position head sleeps on that slot's
// completion or on the log rather than on the socket.
func (c *conn) parked(head uint64) bool {
	st := c.ring[head&uint64(len(c.ring)-1)].state.Load()
	return st == slotParked || st == slotLogWait
}

// Conns reports connections currently being served.
func (s *Server) Conns() int64 { return s.nconns.Load() }

// respKind discriminates a slot's prepared response.
type respKind uint8

const (
	respOK respKind = iota
	respPong
	respErr
	respInt
	respValue // BulkInt(n)
	respNull
	respBulk  // Bulk([]byte(msg))
	respArray // BeginArray(len(arr)) + Int per element
	respClose // no response: the read loop is done and the writer exits
)

// A slot's state word.  The read loop leases slots in ring order without
// touching the word, and swaps in slotReady when it completes the response;
// the writer, which only ever looks at the slot at its own position, parks
// by moving slotIdle to slotParked, marks a ready slot slotLogWait while it
// waits for the log, and resets the word when it has encoded the response.
const (
	slotIdle    uint32 = iota // free, or leased and not yet completed
	slotReady                 // response complete: the writer may encode it
	slotParked                // the writer sleeps until this slot completes
	slotLogWait               // the writer waits for the log to reach mark
)

// slot is one in-flight response: leased from the connection's ring at
// decode time, completed by the read loop — at once, or when the run it
// belongs to executes — and encoded by the writer in ring order.
type slot struct {
	state atomic.Uint32
	kind  respKind
	n     int64
	msg   string
	// mark is a committed write's log watermark: the writer makes the log
	// durable up to it before it encodes the reply.  0 when there is
	// nothing to wait for.
	mark int64
	// arr carries an array reply's integer elements (SCAN's alternating
	// key/value stream).  The backing array survives recycling, so a warm
	// connection's scans stop allocating once a slot has grown to the
	// largest scan it has served.
	arr []int64
}

// conn is one served connection.  Its two goroutines share ring, an SPSC
// queue of response slots: the read loop owns tail and is the only one to
// lease, the writer owns head and is the only one to release.
type conn struct {
	srv *Server
	nc  net.Conn

	ring []slot // power-of-two length ≥ MaxPipeline
	tail uint64 // next position to lease; read loop only
	// head is the writer's position; it stores, the read loop loads it to
	// hold tail-head at MaxPipeline.
	head atomic.Uint64
	// wake carries the one token a completion sends when it finds the
	// writer parked on its slot.
	wake chan struct{}
	// stalled is the read loop's declaration that it waits for head to
	// move; the release that sees it sends the one token on space.
	stalled atomic.Bool
	space   chan struct{}

	// gets and writes are the runs of GETs and of SETs/DELs decoded and not
	// yet executed, at most one of them non-empty; read loop only.
	gets   getRun
	writes writeRun
	// synced is how far the writer has seen the log made durable; writer
	// only.
	synced int64

	// mcas is execMCAS's scratch; an MCAS runs to completion on the read
	// loop, so nothing outlives the call.
	mcas struct{ keys, expects, news []int64 }

	// repl, when set by a REPL command, hands the connection over to the
	// log shipper once the read loop returns and the writer drains (the
	// +OK is the last RESP bytes on the wire).
	repl *replHandoff
}

func (s *Server) newConn(nc net.Conn) *conn {
	return &conn{
		srv:   s,
		nc:    nc,
		ring:  make([]slot, 1<<bits.Len(uint(s.cfg.MaxPipeline-1))),
		wake:  make(chan struct{}, 1),
		space: make(chan struct{}, 1),
		gets: getRun{
			keys:  make([]int64, 0, getRunCap),
			vals:  make([]int64, getRunCap),
			found: make([]bool, getRunCap),
			slots: make([]*slot, 0, getRunCap),
		},
	}
}

// replHandoff carries a REPL command's arguments from the read loop to
// the shipper.
type replHandoff struct {
	afterGSN uint64 // follower's resume position
	floor    uint64 // follower's snapshot coverage
}

// handle serves one connection to completion; it runs on the connection's
// read-loop goroutine.
func (s *Server) handle(nc net.Conn) {
	defer s.serveWG.Done()
	// Wait for admission; bail out if the server shuts down while this
	// connection is queued.
	select {
	case s.admit <- struct{}{}:
	case <-s.doneCh:
		nc.Close()
		return
	}
	defer func() { <-s.admit }()

	c := s.newConn(nc)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.nconns.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.nconns.Add(-1)
	}()

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c.writeLoop()
	}()
	c.readLoop()
	c.closeRing()
	writerWG.Wait()
	if c.repl != nil {
		// RESP is fully drained (+OK for REPL was the writer's last
		// flush); the connection now belongs to the log shipper until it
		// breaks or the server stops.  serveWG still covers us, so stop()
		// waits for the shipper before closing the DB and its log.
		s.runShipper(c.nc, c.repl)
	}
	nc.Close()
}

// runShipper streams the WAL to one follower connection, aborting when
// the server stops (a graceful stop's read deadline cannot interrupt a
// blocked shipper, so a watchdog tears the stream down explicitly).
func (s *Server) runShipper(nc net.Conn, h *replHandoff) {
	sh := repl.NewShipper(s.db.WAL(), nc)
	stopped := make(chan struct{})
	go func() {
		select {
		case <-s.doneCh:
			sh.Abort()
		case <-stopped:
		}
	}()
	sh.Run(h.afterGSN, h.floor) //nolint:errcheck // the follower reconnects
	close(stopped)
}

// lease takes the next slot of the ring for a response, which fixes the
// response's place on the wire: leases happen in request order, before the
// operation that will complete the slot.  With MaxPipeline responses
// outstanding it waits for the writer to release one — the pipeline-depth
// backpressure — executing the queued run first.  A recycled slot
// carries the previous response's payload, so every field a handler might
// leave unset is cleared here — a handler that sets kind but not n (MCAS's
// failure path, say) must not echo a stale value.
func (c *conn) lease() *slot {
	full := func() bool { return c.tail-c.head.Load() >= uint64(c.srv.cfg.MaxPipeline) }
	for full() {
		// The writer may be waiting on a queued request's slot: execute the
		// run before waiting for the writer.
		c.flush()
		c.stalled.Store(true)
		// Between the check and the declaration the writer may have
		// released without seeing it: look again before sleeping, and take
		// the token only if a release has claimed the declaration.
		if full() || !c.stalled.CompareAndSwap(true, false) {
			<-c.space
		}
	}
	sl := &c.ring[c.tail&uint64(len(c.ring)-1)]
	c.tail++
	sl.kind = 0
	sl.n = 0
	sl.mark = 0
	sl.arr = sl.arr[:0]
	return sl
}

// complete publishes a leased slot's response to the writer, waking it if
// it sleeps on this very slot.  The swap is the only synchronization a
// completion pays: a writer that is awake, or asleep on an earlier slot,
// finds the slot ready when it gets there.
func (c *conn) complete(sl *slot) {
	if sl.state.Swap(slotReady) == slotParked {
		c.wake <- struct{}{}
	}
}

// closeRing ends the response stream: the writer drains every response
// leased before this marker, flushes, and exits when it reaches it.
func (c *conn) closeRing() {
	sl := c.lease()
	sl.kind = respClose
	c.complete(sl)
}

// writeLoop encodes responses in ring order.  It looks only at the slot at
// its own position: ready, it encodes and releases it; not ready — leased
// and incomplete, or not leased yet — it flushes everything already
// encoded, so a stalled write never withholds earlier completed responses
// from the client, and parks on that slot.  One wake-up per park: a burst
// of completions behind a sleeping writer costs one scheduler interaction,
// and a writer that keeps finding slots ready costs none.  A ready slot
// with a mark past synced is a write not yet known durable: the writer
// flushes, waits for the log (the one wait covers the rest of the run, and
// whatever else the same fsync covered) and answers -ERR if the log fails.
// Write errors go sticky inside the buffered writer; the loop keeps
// draining to the close marker.
func (c *conn) writeLoop() {
	w := netproto.NewWriter(c.nc)
	defer w.Flush()
	for head := uint64(0); ; head++ {
		sl := &c.ring[head&uint64(len(c.ring)-1)]
		if sl.state.Load() != slotReady {
			w.Flush()
			// A failed swap means the completion got in first.
			if sl.state.CompareAndSwap(slotIdle, slotParked) {
				<-c.wake
			}
		}
		if sl.mark > c.synced {
			w.Flush()
			sl.state.Store(slotLogWait)
			if err := c.srv.db.WAL().CommitTo(sl.mark); err != nil {
				sl.kind, sl.msg = respErr, "ERR "+err.Error()
			} else {
				c.synced = sl.mark
			}
		}
		switch sl.kind {
		case respClose:
			return
		case respOK:
			w.Simple("OK")
		case respPong:
			w.Simple("PONG")
		case respErr:
			w.Error(sl.msg)
		case respInt:
			w.Int(sl.n)
		case respValue:
			w.BulkInt(sl.n)
		case respNull:
			w.Null()
		case respBulk:
			w.Bulk([]byte(sl.msg))
		case respArray:
			w.BeginArray(len(sl.arr))
			for _, v := range sl.arr {
				w.Int(v)
			}
		}
		sl.msg = ""
		sl.state.Store(slotIdle)
		c.head.Store(head + 1)
		if c.stalled.Load() && c.stalled.CompareAndSwap(true, false) {
			c.space <- struct{}{}
		}
	}
}

// fail answers with an error response; the connection survives (framing
// is intact — parse errors of VALUES are command errors, not protocol
// errors).
func (c *conn) fail(msg string) {
	sl := c.lease()
	sl.kind = respErr
	sl.msg = msg
	c.complete(sl)
}

// eqFold reports ASCII case-insensitive equality with an upper-case name.
func eqFold(b []byte, upper string) bool {
	if len(b) != len(upper) {
		return false
	}
	for i := 0; i < len(b); i++ {
		ch := b[i]
		if 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		if ch != upper[i] {
			return false
		}
	}
	return true
}

// argInt parses one int64 argument.
func argInt(b []byte) (int64, bool) {
	v, err := netproto.ParseInt(b)
	return v, err == nil
}

// Read makes the connection the read loop's input: the socket, behind a
// flush of the queued run, so requests already decoded are never held back
// while the loop waits for input that has not arrived.
func (c *conn) Read(p []byte) (int, error) {
	c.flush()
	return c.nc.Read(p)
}

// flush executes whichever run is queued.
func (c *conn) flush() {
	c.flushGets()
	c.flushWrites()
}

// readLoop decodes and dispatches until EOF, a protocol error, or
// shutdown.  It never waits for a response: the only thing that blocks it
// is its own backpressure bound (MaxPipeline).  A run never crosses another
// kind of command: the queued run is executed before it, in the
// connection's order.
func (c *conn) readLoop() {
	// Whatever ends the loop, the requests it accepted are executed.
	defer c.flush()
	r := netproto.NewReader(c)
	var cmd netproto.Command
	for {
		if err := r.ReadCommand(&cmd); err != nil {
			// EOF (client finished), deadline (shutdown), or a framing
			// error: in every case the connection stops reading and the
			// writer drains what was accepted.
			return
		}
		name := cmd.Args[0]
		get := eqFold(name, netproto.CmdGet)
		del := !get && eqFold(name, netproto.CmdDel)
		write := del || !get && eqFold(name, netproto.CmdSet)
		if !get {
			c.flushGets()
		}
		if !write {
			c.flushWrites()
		}
		switch {
		case get:
			c.execGet(&cmd)
		case write:
			c.execWrite(&cmd, del)
		case eqFold(name, netproto.CmdSum):
			c.execSum(&cmd)
		case eqFold(name, netproto.CmdLen):
			c.execLen()
		case eqFold(name, netproto.CmdScan):
			c.execScan(&cmd)
		case eqFold(name, netproto.CmdScanCursor):
			c.execScanCursor(&cmd)
		case eqFold(name, netproto.CmdMCAS):
			c.execMCAS(&cmd)
		case eqFold(name, netproto.CmdPing):
			sl := c.lease()
			sl.kind = respPong
			c.complete(sl)
		case eqFold(name, netproto.CmdStats):
			c.execStats()
		case eqFold(name, netproto.CmdRepl):
			if c.execRepl(&cmd) {
				return // connection handed over to the shipper
			}
		case eqFold(name, netproto.CmdPromote):
			c.srv.Promote()
			sl := c.lease()
			sl.kind = respOK
			c.complete(sl)
		default:
			c.fail(fmt.Sprintf("ERR unknown command %q", name))
		}
	}
}

// execWrite queues one SET (or, with del, one DEL) on the connection's
// write run.
func (c *conn) execWrite(cmd *netproto.Command, del bool) {
	if c.srv.readOnly.Load() {
		c.fail("READONLY following a leader; PROMOTE to enable writes")
		return
	}
	wantArgs := 3
	if del {
		wantArgs = 2
	}
	if len(cmd.Args) != wantArgs {
		c.fail("ERR wrong number of arguments")
		return
	}
	k, ok1 := argInt(cmd.Args[1])
	var v int64
	ok2 := true
	if !del {
		v, ok2 = argInt(cmd.Args[2])
	}
	if !ok1 || !ok2 {
		c.fail("ERR bad integer")
		return
	}
	sl := c.lease()
	sl.kind = respOK
	w := &c.writes
	w.ops, w.slots = append(w.ops, writeOp{key: k, val: v, del: del}), append(w.slots, sl)
}

// writeRun is a run of consecutive SETs and DELs that were all in the input
// buffer together: their slots are leased, in request order, and their
// writes wait to be committed together — the write-side mirror of getRun,
// ended on the same conditions but for the count, since MaxPipeline and the
// read buffer already bound it.  flushWrites commits the run without waiting
// for the log, one commit per shard it touches (mvgc.DB.CommitEach), each
// applying its share in request order, and hands the log mark to the
// writer through the slots.
type writeRun struct {
	ops   []writeOp
	slots []*slot // slots[i] answers ops[i]
}

type writeOp struct {
	key, val int64
	del      bool
}

// flushWrites commits the queued write run and completes its slots, each
// carrying the run's log mark, or -ERR if the commit failed.
func (c *conn) flushWrites() {
	w := &c.writes
	n := len(w.ops)
	if n == 0 {
		return
	}
	mark, err := c.srv.db.CommitEach(func(t *mvgc.DBTxn[int64, int64, int64]) {
		for _, op := range w.ops {
			if op.del {
				t.Delete(op.key)
			} else {
				t.Insert(op.key, op.val)
			}
		}
	})
	for i := n - 1; i >= 0; i-- { // last first, as flushGets
		sl := w.slots[i]
		if err != nil {
			sl.kind, sl.msg = respErr, "ERR "+err.Error()
		} else {
			sl.mark = mark
		}
		c.complete(sl)
	}
	w.ops, w.slots = w.ops[:0], w.slots[:0]
	if err == nil {
		c.srv.writeRuns.Add(1)
		c.srv.writes.Add(int64(n))
	}
}

// getRunCap bounds a read run, and with it how long one run holds the
// versions it reads from: at most this many lookups.  It is not a setting:
// runs end far sooner on every other condition (a 95 % GET pipeline averages
// 19 GETs between SETs), so no workload wants a different value.
const getRunCap = 256

// getRun is a run of consecutive GETs that were all in the input buffer
// together: their slots are leased, in request order, and their lookups
// wait to be executed as one batch — N pipelined GETs cost one read
// transaction per shard, and their tree descents overlap
// (ftree.Ops.FindBatch).  Nothing here ever waits.  flushGets runs the
// moment the run cannot grow without waiting: before any other command is
// dispatched, before the read loop goes back to the socket (conn.Read),
// before a lease that would block on MaxPipeline, at getRunCap keys, and on
// the way out of the read loop.
// So each key is read from a version acquired after its GET arrived and
// before its reply is written, exactly as when every GET was its own
// transaction.
type getRun struct {
	keys  []int64
	slots []*slot // slots[i] answers keys[i]
	// vals and found receive a flush's results; getRunCap long.
	vals  []int64
	found []bool
}

// execGet queues one GET on the connection's read run.
func (c *conn) execGet(cmd *netproto.Command) {
	if len(cmd.Args) != 2 {
		c.fail("ERR wrong number of arguments")
		return
	}
	k, ok := argInt(cmd.Args[1])
	if !ok {
		c.fail("ERR bad integer")
		return
	}
	g := &c.gets
	sl := c.lease()
	g.keys, g.slots = append(g.keys, k), append(g.slots, sl)
	if len(g.keys) == getRunCap {
		c.flushGets()
	}
}

// flushGets executes the queued read run and completes its slots.  A lone
// GET — every GET of a client that sends one request at a time — is the
// cached-handle point read, 0 B/op on the store side.
func (c *conn) flushGets() {
	g := &c.gets
	n := len(g.keys)
	switch n {
	case 0:
		return
	case 1:
		g.vals[0], g.found[0] = c.srv.db.Get(g.keys[0])
	default:
		c.srv.db.GetBatch(g.keys, g.vals, g.found)
	}
	// Last slot first: a writer parked on the run's first slot wakes once,
	// to find the whole run ready.
	for i := n - 1; i >= 0; i-- {
		sl := g.slots[i]
		if g.found[i] {
			sl.kind, sl.n = respValue, g.vals[i]
		} else {
			sl.kind = respNull
		}
		c.complete(sl)
	}
	g.keys, g.slots = g.keys[:0], g.slots[:0]
	c.srv.getRuns.Add(1)
	c.srv.gets.Add(int64(n))
}

// view is the fan-out read mode SUM and LEN use: globally consistent when
// the server was configured for it, per-shard otherwise.
func (c *conn) view(f func(sn mvgc.DBSnapshot[int64, int64, int64])) {
	if c.srv.cfg.Consistent {
		c.srv.db.ViewConsistent(f)
		return
	}
	c.srv.db.View(f)
}

func (c *conn) execSum(cmd *netproto.Command) {
	if len(cmd.Args) != 3 {
		c.fail("ERR wrong number of arguments")
		return
	}
	lo, ok1 := argInt(cmd.Args[1])
	hi, ok2 := argInt(cmd.Args[2])
	if !ok1 || !ok2 {
		c.fail("ERR bad integer")
		return
	}
	sl := c.lease()
	sl.kind = respInt
	c.view(func(sn mvgc.DBSnapshot[int64, int64, int64]) { sl.n = sn.AugRange(lo, hi) })
	c.complete(sl)
}

// maxScanEntries bounds one SCAN's result so the reply's element count
// (two per entry) stays within the protocol's array bound.
const maxScanEntries = netproto.MaxArgs / 2

// execScan streams up to n entries with keys ≥ lo — the loser-tree merge
// over all shards — into the slot's reusable element buffer and replies
// with an array of alternating keys and values in ascending key order.
// Under Config.Consistent the scan observes one global GSN cut, so a
// concurrent MCAS (or any atomic transaction) is never seen half-applied
// mid-scan; per-shard snapshots otherwise.  Like GET it runs inline on
// the read loop against a pinned snapshot, so it never blocks writers.
func (c *conn) execScan(cmd *netproto.Command) {
	if len(cmd.Args) != 3 {
		c.fail("ERR wrong number of arguments")
		return
	}
	lo, ok1 := argInt(cmd.Args[1])
	n, ok2 := argInt(cmd.Args[2])
	if !ok1 || !ok2 {
		c.fail("ERR bad integer")
		return
	}
	if n < 0 || n > maxScanEntries {
		c.fail(fmt.Sprintf("ERR scan count must be in [0, %d]", maxScanEntries))
		return
	}
	sl := c.lease()
	sl.kind = respArray
	c.view(func(sn mvgc.DBSnapshot[int64, int64, int64]) {
		sn.ScanFunc(lo, int(n), func(k, v int64) bool {
			sl.arr = append(sl.arr, k, v)
			return true
		})
	})
	c.complete(sl)
}

// maxCursorEntries bounds one SCANC chunk: the reply carries two extra
// integers (more + next) ahead of the pairs.
const maxCursorEntries = (netproto.MaxArgs - 2) / 2

// execScanCursor is the cursor-style chunked scan, with the chunking
// driven by the client: each SCANC page is one ScanFunc over c.view — a
// fresh pin that streams at most n entries from the cursor and is released
// before the reply — so an analytics client walking the whole keyspace
// never stretches any shard's uncollected-version window beyond one page.
// Commits landing between pages are observed, keys stream in strictly
// increasing order, each at most once: SCANC is where that
// bounded-staleness contract lives (TestScanCursorBoundedStaleness).
//
// Reply: *<2m+2> of integers [more, next, k1, v1, ...] — more is 1 when
// entries remain past this chunk, next is the last key returned (pass it
// back with excl=1 to continue).
func (c *conn) execScanCursor(cmd *netproto.Command) {
	if len(cmd.Args) != 4 {
		c.fail("ERR usage: SCANC <lo> <n> <excl>")
		return
	}
	lo, ok1 := argInt(cmd.Args[1])
	n, ok2 := argInt(cmd.Args[2])
	excl, ok3 := argInt(cmd.Args[3])
	if !ok1 || !ok2 || !ok3 {
		c.fail("ERR bad integer")
		return
	}
	if n < 1 || n > maxCursorEntries {
		c.fail(fmt.Sprintf("ERR scan count must be in [1, %d]", maxCursorEntries))
		return
	}
	sl := c.lease()
	sl.kind = respArray
	sl.arr = append(sl.arr, 0, lo) // [more, next] backfilled below
	start := lo
	if excl != 0 {
		if lo == math.MaxInt64 { // nothing can follow the cursor
			c.complete(sl)
			return
		}
		start = lo + 1
	}
	c.view(func(sn mvgc.DBSnapshot[int64, int64, int64]) {
		sn.ScanFunc(start, int(n)+1, func(k, v int64) bool {
			if int64(len(sl.arr))-2 >= 2*n {
				sl.arr[0] = 1 // the probe entry: more remain
				return false
			}
			sl.arr = append(sl.arr, k, v)
			sl.arr[1] = k
			return true
		})
	})
	c.complete(sl)
}

// execRepl validates a REPL handshake and schedules the connection
// handover; it reports whether the read loop should return.  The +OK
// travels through the normal slot path, so any pipelined commands ahead
// of REPL are answered first and the handover happens at a clean frame
// boundary.
func (c *conn) execRepl(cmd *netproto.Command) bool {
	if len(cmd.Args) != 4 || string(cmd.Args[1]) != repl.Proto {
		// Includes the first protocol's REPL <afterGSN> <floor>: its follower
		// would misread this stream, so it is refused, not served.
		c.fail("ERR usage: REPL " + repl.Proto + " <afterGSN> <floor>")
		return false
	}
	after, err1 := strconv.ParseUint(string(cmd.Args[2]), 10, 64)
	floor, err2 := strconv.ParseUint(string(cmd.Args[3]), 10, 64)
	if err1 != nil || err2 != nil {
		c.fail("ERR bad position")
		return false
	}
	if c.srv.db.WAL() == nil {
		c.fail("ERR replication requires a WAL (-wal)")
		return false
	}
	c.repl = &replHandoff{afterGSN: after, floor: floor}
	sl := c.lease()
	sl.kind = respOK
	c.complete(sl)
	return true
}

func (c *conn) execLen() {
	sl := c.lease()
	sl.kind = respInt
	c.view(func(sn mvgc.DBSnapshot[int64, int64, int64]) { sl.n = sn.Len() })
	c.complete(sl)
}

// execMCAS maps MCAS onto DB.UpdateAtomicKeys: the declared footprint is
// the swapped keys, expectations are read under its writer slots, and the
// commit is a serializable multi-key compare-and-swap against every other
// writer.  It runs inline on the read loop after the connection's queued
// write run has committed, so it reads the connection's earlier SETs; an
// MCAS is a pipeline barrier for its connection, and replies stay in
// order regardless.
func (c *conn) execMCAS(cmd *netproto.Command) {
	if c.srv.readOnly.Load() {
		c.fail("READONLY following a leader; PROMOTE to enable writes")
		return
	}
	if len(cmd.Args) < 4 || (len(cmd.Args)-1)%3 != 0 {
		c.fail("ERR usage: MCAS <key> <expect> <new> [...]")
		return
	}
	keys, expects, news := c.mcas.keys[:0], c.mcas.expects[:0], c.mcas.news[:0]
	for i := 1; i < len(cmd.Args); i += 3 {
		k, ok1 := argInt(cmd.Args[i])
		e, ok2 := argInt(cmd.Args[i+1])
		n, ok3 := argInt(cmd.Args[i+2])
		if !ok1 || !ok2 || !ok3 {
			c.fail("ERR bad integer")
			return
		}
		keys, expects, news = append(keys, k), append(expects, e), append(news, n)
	}
	c.mcas.keys, c.mcas.expects, c.mcas.news = keys, expects, news
	swapped := false
	err := c.srv.db.UpdateAtomicKeys(keys, func(t *mvgc.DBTxn[int64, int64, int64]) {
		swapped = false // f may re-run if the attempt restarts
		for i, k := range keys {
			if v, ok := t.Get(k); !ok || v != expects[i] {
				return // no intents buffered: nothing commits
			}
		}
		swapped = true
		for i, k := range keys {
			t.Insert(k, news[i])
		}
	})
	if err != nil {
		// Not committed, or committed in memory and not durable: like a SET
		// in the same position, the client must not read it as an answer.
		c.fail("ERR " + err.Error())
		return
	}
	sl := c.lease()
	sl.kind = respInt
	if swapped {
		sl.n = 1
	}
	c.complete(sl)
}

// execStats renders the serving-layer counters that show coalescing:
// batches/applied are the write runs committed and the writes in them
// (applied/batches = writes per run), commits is the store's total
// committed write transactions.  gsn is the store's commit
// sequence high-water mark; repl_pos is the highest GSN the follower has
// applied (NOT the positional resume marker, which names the last frame
// and can trail by a GSN inversion) and repl_floor its newest snapshot cut
// — leader gsn minus follower repl_pos is the replication lag in GSNs, 0
// when caught up; wal_live is the log's live bytes (what the background
// checkpointer bounds); get_runs/gets are the read runs executed and the GETs
// in them (gets/get_runs = GETs per read run).
func (c *conn) execStats() {
	s := c.srv
	sl := c.lease()
	sl.kind = respBulk
	readonly := int64(0)
	if s.readOnly.Load() {
		readonly = 1
	}
	var pos, floor uint64
	s.fmu.Lock()
	if s.follower != nil {
		pos = s.follower.Applied()
		_, floor = s.follower.Pos()
	}
	s.fmu.Unlock()
	sl.msg = "batches=" + strconv.FormatInt(s.writeRuns.Load(), 10) +
		" applied=" + strconv.FormatInt(s.writes.Load(), 10) +
		" commits=" + strconv.FormatInt(s.db.Commits(), 10) +
		" conns=" + strconv.FormatInt(s.Conns(), 10) +
		" shards=" + strconv.FormatInt(int64(s.db.NumShards()), 10) +
		" gsn=" + strconv.FormatUint(s.db.CommitGSN(), 10) +
		" readonly=" + strconv.FormatInt(readonly, 10) +
		" repl_pos=" + strconv.FormatUint(pos, 10) +
		" repl_floor=" + strconv.FormatUint(floor, 10) +
		" wal_live=" + strconv.FormatInt(s.db.WALStats().LiveBytes, 10) +
		" get_runs=" + strconv.FormatInt(s.getRuns.Load(), 10) +
		" gets=" + strconv.FormatInt(s.gets.Load(), 10)
	c.complete(sl)
}

// Package netserver is the pipelined binary-protocol serving layer over
// mvgc.DB: the front door that turns N sockets' traffic into the
// concurrency shape the underlying store amortizes best.
//
// Each accepted connection runs two goroutines:
//
//   - The read loop decodes requests (netproto), executes them in request
//     order and encodes every reply itself, into a buffer the connection
//     owns, so a reply's place on the wire is where it was encoded.
//     Consecutive requests of one kind that are already in the input buffer
//     form a run, and a run is executed as soon as it cannot grow without
//     waiting: GETs as one read transaction per shard (mvgc.DB.GetBatch,
//     see getRun), SETs and DELs as one commit per shard
//     (mvgc.DB.CommitEach, see flushWrites), which does not wait for the
//     log.  So a pipelined GET reads its own connection's earlier writes.
//     MCAS runs mvgc.DB.UpdateAtomicKeys inline.
//   - The writer puts the replies on the socket.  The read loop hands it
//     everything encoded so far (publish) at the end of each run and after
//     each lone reply; the writer takes all of it at once, so a burst of
//     requests costs the two goroutines one handoff, not one per request.
//     A write run's replies travel as a count and the run's log mark: the
//     writer sends what precedes them, makes the log durable up to the mark
//     (wal.Log.CommitTo) and only then writes the +OKs, so an acknowledged
//     write is durable and the read loop never waits on an fsync.
//
// N connections × D-deep pipelines keep N×D requests in flight on 2N
// goroutines; a burst of D writes is O(shards) commits, and the writers
// of all connections share fsyncs through the log's group commit (see
// DESIGN.md, "Inside the server"; BenchmarkServeSweep measures
// commits-per-op).
//
// Backpressure is layered: a connection may have at most
// Config.MaxPipeline replies outstanding — accepted by the read loop and
// not yet written by the writer, which counts them per handoff; the read
// loop waits in reserve beyond that — and Config.MaxConns bounds
// connections being served concurrently.
package netserver

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mvgc"
	"mvgc/internal/netproto"
	"mvgc/internal/repl"
	"mvgc/internal/shard"
	"mvgc/internal/wal"
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
	log *wal.Log // db's redo log; nil without Config.WAL.Dir

	// admit holds one token per connection being served: MaxConns bounds
	// it (admission control).
	admit chan struct{}

	mu    sync.Mutex
	lns   []net.Listener
	conns map[*conn]struct{}
	// closed is set, under mu, by Shutdown/Close; the connections' writers
	// load it before every socket write (conn.Write).
	closed atomic.Bool
	doneCh chan struct{} // closed by Shutdown/Close to abort slot waiters

	serveWG sync.WaitGroup // accept loops + connection goroutines

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
		WAL:    walOpts,
	}, mvgc.SumAug[int64](), nil)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		db:     db,
		log:    shard.WAL(db),
		admit:  make(chan struct{}, cfg.MaxConns),
		conns:  make(map[*conn]struct{}),
		doneCh: make(chan struct{}),
	}
	if cfg.Follow != "" {
		s.readOnly.Store(true)
		f, err := repl.Start(repl.Config{
			Addr: cfg.Follow,
			DB:   shard.Applier(db),
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
	if s.closed.Load() {
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
			if s.closed.Load() {
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
// client that stops reading: from the stop on, each socket write has
// drainGrace to finish (see conn.Write), so such a client delays Shutdown by
// about one drainGrace, not for ever.
func (s *Server) Shutdown() error { return s.stop(true) }

// Close force-closes listeners and connections; in-flight responses may be
// lost (what the read loops accepted still commits, but the sockets are
// gone).  Prefer Shutdown.
func (s *Server) Close() error { return s.stop(false) }

func (s *Server) stop(graceful bool) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil
	}
	s.closed.Store(true)
	close(s.doneCh)
	for _, ln := range s.lns {
		ln.Close()
	}
	now := time.Now()
	for c := range s.conns {
		if graceful {
			// Wake a read loop parked in Read; everything it already
			// enqueued still drains through its writer.  The write deadline
			// bounds a write already blocked; later ones arm their own.
			c.nc.SetReadDeadline(now)
			c.nc.SetWriteDeadline(now.Add(drainGrace))
		} else {
			c.nc.Close()
		}
	}
	s.mu.Unlock()
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

// drainGrace bounds each socket write once the server stops: a client that
// stops reading leaves its writer blocked in a write for good, and that must
// not wedge Shutdown.
const drainGrace = time.Second

// Conns reports connections currently being served.
func (s *Server) Conns() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.conns))
}

// conn is one served connection.  The read loop encodes replies into enc
// and publishes them to pend; the writer takes pend whole, under mu.
type conn struct {
	srv *Server
	nc  net.Conn

	// w encodes the read loop's replies into enc; read loop only.
	w   *netproto.Writer
	enc batch
	// accepted counts the replies the read loop owes; read loop only.
	accepted int64
	// written counts the replies the writer has put on the socket.  The
	// writer stores it under mu; the read loop loads it to hold
	// accepted-written at MaxPipeline.
	written atomic.Int64

	// mu guards the handoff: pend holds the replies published and not yet
	// taken, ready counts every reply published, and done says the read
	// loop has returned.  more wakes the writer, room the read loop.
	mu    sync.Mutex
	more  sync.Cond
	room  sync.Cond
	pend  batch
	ready int64
	done  bool

	// gets and writes are the runs of GETs and of SETs/DELs decoded and not
	// yet executed, at most one of them non-empty; read loop only.
	gets   getRun
	writes []writeOp
	// synced is how far the writer has seen the log made durable; writer
	// only.
	synced int64

	// arg holds the integer arguments ints parsed last; scan collects a
	// SCAN reply's elements, and mcas is execMCAS's scratch.  All three are
	// used by one command at a time, on the read loop.
	arg  [3]int64
	scan []int64
	mcas struct{ keys, expects, news []int64 }

	// repl, when set by a REPL command, hands the connection over to the
	// log shipper once the read loop returns and the writer drains (the
	// +OK is the last RESP bytes on the wire).
	repl *replHandoff
}

// batch is a stretch of encoded replies.  An ack stands where a committed
// write run's replies belong: the writer sends the bytes before it, waits
// for the log, and then answers the run.
type batch struct {
	b    []byte
	acks []ack
}

// ack is a write run's n replies, due once the log is durable up to mark;
// off is their place in the batch's bytes.
type ack struct {
	off, n int
	mark   int64
}

// Write appends encoded replies: the read loop's netproto.Writer flushes
// into enc.
func (b *batch) Write(p []byte) (int, error) {
	b.b = append(b.b, p...)
	return len(p), nil
}

func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{srv: s, nc: nc}
	c.w = netproto.NewWriterSize(&c.enc, 4<<10)
	c.more.L, c.room.L = &c.mu, &c.mu
	return c
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
	if s.closed.Load() {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c.writeLoop()
	}()
	c.readLoop()
	c.finish()
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
	sh := repl.NewShipper(s.log, nc)
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

// reserve counts one more reply owed, before the request it answers is
// executed.  With MaxPipeline replies outstanding it waits for the writer
// to put some on the wire — the pipeline-depth backpressure — after
// executing the queued run, whose replies the writer may be waiting for.
func (c *conn) reserve() {
	limit := int64(c.srv.cfg.MaxPipeline)
	if c.accepted-c.written.Load() >= limit {
		c.flush()
		c.mu.Lock()
		for c.accepted-c.written.Load() >= limit {
			c.room.Wait()
		}
		c.mu.Unlock()
	}
	c.accepted++
}

// publish hands the writer every reply encoded so far.  It must not run
// while a run is queued, whose replies are reserved but not encoded: a run
// encodes all its replies, then publishes once, and a lone reply is
// published as soon as it is encoded.
func (c *conn) publish() {
	c.w.Flush()
	c.mu.Lock()
	for _, a := range c.enc.acks {
		a.off += len(c.pend.b)
		c.pend.acks = append(c.pend.acks, a)
	}
	c.pend.b = append(c.pend.b, c.enc.b...)
	c.enc.b, c.enc.acks = c.enc.b[:0], c.enc.acks[:0]
	c.ready = c.accepted
	c.mu.Unlock()
	c.more.Signal()
}

// finish ends the reply stream: the writer sends everything published and
// exits.
func (c *conn) finish() {
	c.mu.Lock()
	c.done = true
	c.mu.Unlock()
	c.more.Signal()
}

// writeLoop takes whatever the read loop has published, sends it and
// flushes, so one socket write carries every reply published while the
// last one was in flight; it sleeps only when nothing is published.  At an
// ack past synced — a write not yet known durable — it flushes, waits for
// the log (the one wait covers the rest of the run, and whatever else the
// same fsync covered) and answers -ERR if the log fails.  Write errors go
// sticky inside the buffered writer; the loop keeps draining until the
// read loop is done.
func (c *conn) writeLoop() {
	w := netproto.NewWriter(c)
	var b batch
	var taken int64
	for {
		c.mu.Lock()
		c.written.Store(taken)
		c.room.Signal()
		for c.ready == taken && !c.done {
			c.more.Wait()
		}
		if c.ready == taken {
			c.mu.Unlock()
			return
		}
		b, c.pend = c.pend, b
		taken = c.ready
		c.mu.Unlock()
		off := 0
		for _, a := range b.acks {
			w.Write(b.b[off:a.off])
			off = a.off
			c.answer(w, a)
		}
		w.Write(b.b[off:])
		w.Flush()
		b.b, b.acks = b.b[:0], b.acks[:0]
	}
}

// answer writes a write run's replies once the log is durable up to its
// mark: +OK each, or -ERR if the log failed.
func (c *conn) answer(w *netproto.Writer, a ack) {
	if a.mark > c.synced {
		w.Flush()
		if err := c.srv.log.CommitTo(a.mark); err != nil {
			msg := "ERR " + err.Error()
			for range a.n {
				w.Error(msg)
			}
			return
		}
		c.synced = a.mark
	}
	for range a.n {
		w.Simple("OK")
	}
}

// Write makes the socket the writer's output, the mirror of Read.  Once the
// server stops, each socket write has drainGrace to finish: to a client that
// stops reading it fails, the error goes sticky in the encoder, and the
// writer drains without the socket.  A writer waiting on the log writes
// nothing meanwhile, so a slow fsync is never cut.
func (c *conn) Write(p []byte) (int, error) {
	if c.srv.closed.Load() {
		c.nc.SetWriteDeadline(time.Now().Add(drainGrace))
	}
	return c.nc.Write(p)
}

// fail answers with an error response; the connection survives (framing
// is intact — parse errors of VALUES are command errors, not protocol
// errors).  A malformed GET or SET arrives with its kind's run queued, so
// that run executes first: its replies come before this one.
func (c *conn) fail(msg string) {
	c.flush()
	c.reserve()
	c.w.Error(msg)
	c.publish()
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

// args checks that cmd carries n integer arguments after its name and
// parses them into c.arg; when it does not, it answers -ERR and reports
// false.
func (c *conn) args(cmd *netproto.Command, n int) bool {
	if len(cmd.Args) != 1+n {
		c.fail("ERR wrong number of arguments")
		return false
	}
	return c.ints(cmd.Args[1:])
}

// ints parses each of args, at most len(c.arg), into c.arg; on a malformed
// one it answers -ERR and reports false.
func (c *conn) ints(args [][]byte) bool {
	for i, b := range args {
		v, err := netproto.ParseInt(b)
		if err != nil {
			c.fail("ERR bad integer")
			return false
		}
		c.arg[i] = v
	}
	return true
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
// shutdown.  It never waits for a reply to be written: the only thing that
// blocks it is its own backpressure bound (MaxPipeline).  A run never
// crosses another kind of command: the queued run is executed before it,
// in the connection's order.
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
		case eqFold(name, netproto.CmdMCAS):
			c.execMCAS(&cmd)
		case eqFold(name, netproto.CmdPing):
			c.reserve()
			c.w.Simple("PONG")
			c.publish()
		case eqFold(name, netproto.CmdStats):
			c.execStats()
		case eqFold(name, netproto.CmdRepl):
			if c.execRepl(&cmd) {
				return // connection handed over to the shipper
			}
		case eqFold(name, netproto.CmdPromote):
			c.srv.Promote()
			c.reserve()
			c.w.Simple("OK")
			c.publish()
		default:
			c.fail(fmt.Sprintf("ERR unknown command %q", name))
		}
	}
}

// execWrite queues one SET (or, with del, one DEL) on the connection's
// write run: a run of consecutive SETs and DELs that were all in the input
// buffer together, the write-side mirror of getRun, ended on the same
// conditions but for the count, since MaxPipeline and the read buffer
// already bound it.
func (c *conn) execWrite(cmd *netproto.Command, del bool) {
	if c.srv.readOnly.Load() {
		c.fail("READONLY following a leader; PROMOTE to enable writes")
		return
	}
	n := 2 // SET <key> <val>
	if del {
		n = 1 // DEL <key>: the run ignores val
	}
	if !c.args(cmd, n) {
		return
	}
	c.reserve()
	c.writes = append(c.writes, writeOp{key: c.arg[0], val: c.arg[1], del: del})
}

type writeOp struct {
	key, val int64
	del      bool
}

// flushWrites commits the queued write run without waiting for the log,
// one commit per shard it touches (mvgc.DB.CommitEach), each applying its
// share in request order, and publishes the run's replies: an ack carrying
// the log mark, or -ERR each if the commit failed.
func (c *conn) flushWrites() {
	n := len(c.writes)
	if n == 0 {
		return
	}
	mark, err := c.srv.db.CommitEach(func(t *mvgc.DBTxn[int64, int64, int64]) {
		for _, op := range c.writes {
			if op.del {
				t.Delete(op.key)
			} else {
				t.Insert(op.key, op.val)
			}
		}
	})
	c.writes = c.writes[:0]
	if err != nil {
		msg := "ERR " + err.Error()
		for range n {
			c.w.Error(msg)
		}
	} else {
		c.ack(n, mark)
		c.srv.writeRuns.Add(1)
		c.srv.writes.Add(int64(n))
	}
	c.publish()
}

// ack places n replies of a committed write run after everything encoded
// so far: the writer answers them once the log is durable up to mark.
func (c *conn) ack(n int, mark int64) {
	c.w.Flush()
	c.enc.acks = append(c.enc.acks, ack{off: len(c.enc.b), n: n, mark: mark})
}

// getRunCap bounds a read run, and with it how long one run holds the
// versions it reads from: at most this many lookups.  It is not a setting:
// runs end far sooner on every other condition (a 95 % GET pipeline averages
// 19 GETs between SETs), so no workload wants a different value.
const getRunCap = 256

// getRun is a run of consecutive GETs that were all in the input buffer
// together: their replies are reserved, in request order, and their lookups
// wait to be executed as one batch — N pipelined GETs cost one read
// transaction per shard, and their tree descents overlap
// (ftree.Ops.FindBatch).  Nothing here ever waits.  flushGets runs the
// moment the run cannot grow without waiting: before any other command is
// dispatched or an error answered, before the read loop goes back to the
// socket (conn.Read), before a reserve that would block on MaxPipeline, at
// getRunCap keys, and on the way out of the read loop.  So each key is read
// from a version acquired after its GET arrived and before its reply is
// written, exactly as when every GET was its own transaction.
type getRun struct {
	keys []int64
	// vals and found receive a flush's results.
	vals  [getRunCap]int64
	found [getRunCap]bool
}

// execGet queues one GET on the connection's read run.
func (c *conn) execGet(cmd *netproto.Command) {
	if !c.args(cmd, 1) {
		return
	}
	c.reserve()
	g := &c.gets
	g.keys = append(g.keys, c.arg[0])
	if len(g.keys) == getRunCap {
		c.flushGets()
	}
}

// flushGets executes the queued read run and publishes its replies.  A
// lone GET — every GET of a client that sends one request at a time — is
// the cached-handle point read, 0 B/op on the store side.
func (c *conn) flushGets() {
	g := &c.gets
	n := len(g.keys)
	switch n {
	case 0:
		return
	case 1:
		g.vals[0], g.found[0] = c.srv.db.Get(g.keys[0])
	default:
		c.srv.db.GetBatch(g.keys, g.vals[:n], g.found[:n])
	}
	for i := range n {
		if g.found[i] {
			c.w.BulkInt(g.vals[i])
		} else {
			c.w.Null()
		}
	}
	g.keys = g.keys[:0]
	c.publish()
	c.srv.getRuns.Add(1)
	c.srv.gets.Add(int64(n))
}

func (c *conn) execSum(cmd *netproto.Command) {
	if !c.args(cmd, 2) {
		return
	}
	lo, hi := c.arg[0], c.arg[1]
	c.reserve()
	var sum int64
	c.srv.db.ViewConsistent(func(sn mvgc.DBSnapshot[int64, int64, int64]) { sum = sn.AugRange(lo, hi) })
	c.w.Int(sum)
	c.publish()
}

// execScan streams up to n entries with keys ≥ lo — the loser-tree merge
// over all shards — into the connection's reusable element buffer and
// replies with an array of alternating keys and values in ascending key
// order.  Like SUM and LEN it reads one ViewConsistent cut, so a
// concurrent MCAS is never seen half-applied mid-scan.  It runs inline on
// the read loop against snapshots pinned for this one page and released
// before the reply, so it never blocks writers, and a client that walks a
// long range page by page (netclient.Scanner) holds no version beyond the
// page it is reading.
func (c *conn) execScan(cmd *netproto.Command) {
	if !c.args(cmd, 2) {
		return
	}
	lo, n := c.arg[0], c.arg[1]
	if n < 0 || n > netproto.MaxScanPage {
		c.fail(fmt.Sprintf("ERR scan count must be in [0, %d]", netproto.MaxScanPage))
		return
	}
	c.reserve()
	c.scan = c.scan[:0]
	c.srv.db.ViewConsistent(func(sn mvgc.DBSnapshot[int64, int64, int64]) {
		sn.ScanFunc(lo, int(n), func(k, v int64) bool {
			c.scan = append(c.scan, k, v)
			return true
		})
	})
	c.w.BeginArray(len(c.scan))
	for _, v := range c.scan {
		c.w.Int(v)
	}
	c.publish()
}

// execRepl validates a REPL handshake and schedules the connection
// handover; it reports whether the read loop should return.  The +OK
// travels the normal reply path, so any pipelined commands ahead of REPL
// are answered first and the handover happens at a clean frame boundary.
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
	if c.srv.log == nil {
		c.fail("ERR replication requires a WAL (-wal)")
		return false
	}
	c.repl = &replHandoff{afterGSN: after, floor: floor}
	c.reserve()
	c.w.Simple("OK")
	c.publish()
	return true
}

func (c *conn) execLen() {
	c.reserve()
	var n int64
	c.srv.db.ViewConsistent(func(sn mvgc.DBSnapshot[int64, int64, int64]) { n = sn.Len() })
	c.w.Int(n)
	c.publish()
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
		if !c.ints(cmd.Args[i : i+3]) {
			return
		}
		keys, expects, news = append(keys, c.arg[0]), append(expects, c.arg[1]), append(news, c.arg[2])
	}
	c.mcas.keys, c.mcas.expects, c.mcas.news = keys, expects, news
	var swapped int64 // the reply: 1 swapped, 0 conflict
	err := c.srv.db.UpdateAtomicKeys(keys, func(t *mvgc.DBTxn[int64, int64, int64]) {
		swapped = 0 // f may re-run if the attempt restarts
		for i, k := range keys {
			if v, ok := t.Get(k); !ok || v != expects[i] {
				return // no intents buffered: nothing commits
			}
		}
		swapped = 1
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
	c.reserve()
	c.w.Int(swapped)
	c.publish()
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
	c.reserve()
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
	c.w.Bulk([]byte("batches=" + strconv.FormatInt(s.writeRuns.Load(), 10) +
		" applied=" + strconv.FormatInt(s.writes.Load(), 10) +
		" commits=" + strconv.FormatInt(s.db.Commits(), 10) +
		" conns=" + strconv.FormatInt(s.Conns(), 10) +
		" shards=" + strconv.FormatInt(int64(s.db.NumShards()), 10) +
		" gsn=" + strconv.FormatUint(shard.CommitGSN(s.db), 10) +
		" readonly=" + strconv.FormatInt(readonly, 10) +
		" repl_pos=" + strconv.FormatUint(pos, 10) +
		" repl_floor=" + strconv.FormatUint(floor, 10) +
		" wal_live=" + strconv.FormatInt(s.db.WALStats().LiveBytes, 10) +
		" get_runs=" + strconv.FormatInt(s.getRuns.Load(), 10) +
		" gets=" + strconv.FormatInt(s.gets.Load(), 10)))
	c.publish()
}

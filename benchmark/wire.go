package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mvgc"
	"mvgc/internal/ftree"
	"mvgc/internal/netclient"
	"mvgc/internal/netserver"
	"mvgc/internal/wal"
)

// cluster is an in-process serving stack on TCP loopback: a leader, its
// clients, and — for the durable shapes — a write-ahead log on the real
// disk behind a counting FS plus a live follower with its own log.
type cluster struct {
	leader   *netserver.Server
	laddr    string
	lfs      *countFS // nil without a WAL
	ldir     string
	follower *netserver.Server
	ffs      *countFS
	ctl      *netclient.Client // leader control connection (STATS, LEN, SUM)
	fctl     *netclient.Client // follower control connection
	clients  []*client
	barriers int64  // awaitFollower's barrier writes so far
	root     string // scratch directory; removed by stop
}

type clusterOpts struct {
	w             string // workload: decides key count and initial values
	z             sizes
	wal, follower bool
	scratch       string // parent of this cluster's directories
	nclients      int
	// tr, when set, records a span under parent around every Write and
	// Sync of both logs' filesystems.
	tr     *tracer
	parent int32
}

// countingFS is the real disk behind a counting FS, traced from its first
// operation when the options carry a tracer.
func (o clusterOpts) countingFS() *countFS {
	fs := newCountFS(wal.OsFS{})
	if o.tr != nil {
		fs.trace(o.tr, o.parent)
	}
	return fs
}

// clientWindow is the netclient window: large enough that neither the
// closed loop's own depth (nor twice it, in the saturation test) nor an
// open-loop backlog ever hits it first.
const clientWindow = 8192

func serve(cfg netserver.Config) (*netserver.Server, string, error) {
	srv, err := netserver.New(cfg)
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	go srv.Serve(ln) //nolint:errcheck // returns nil after Shutdown
	return srv, ln.Addr().String(), nil
}

// initialEntries is the sorted preload of workload w.
func initialEntries(w string, keys int) []ftree.Entry[int64, int64] {
	es := make([]ftree.Entry[int64, int64], keys)
	for i := range es {
		es[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: initialValue(w, int64(i))}
	}
	return es
}

// startCluster opens the stack and preloads it; with a follower it
// returns once the follower has caught up with the preload.
func startCluster(o clusterOpts) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.stop()
			c = nil
		}
	}()
	// MaxPipeline is twice the closed loop's depth, so the window a client
	// keeps is the benchmark's choice and never clipped by the server's
	// default cap of 1024 — and the saturation test can double it.
	cfg := netserver.Config{Shards: numShards, MaxConns: 8, MaxPipeline: 2 * o.z.depth}
	if o.wal {
		if c.root, err = os.MkdirTemp(o.scratch, "cluster-"); err != nil {
			return c, err
		}
		c.ldir = filepath.Join(c.root, "leader")
		c.lfs = o.countingFS()
		cfg.WAL = mvgc.WALOptions{
			Dir: c.ldir, FS: c.lfs, Fsync: "always",
			SegmentBytes: o.z.segmentBytes, CheckpointBytes: o.z.checkpointBytes,
		}
	}
	if c.leader, c.laddr, err = serve(cfg); err != nil {
		return c, err
	}
	const chunk = 1 << 16
	es := initialEntries(o.w, o.z.keysOf(o.w))
	for i := 0; i < len(es); i += chunk {
		if err = c.leader.DB().InsertBatch(es[i:min(i+chunk, len(es))], nil); err != nil {
			return c, err
		}
	}
	if o.wal {
		// Fold the preload into a snapshot: the measured phases start from
		// a compact log, and a follower bootstraps from the snapshot
		// instead of replaying the preload record by record.
		if err = c.leader.DB().Checkpoint(); err != nil {
			return c, err
		}
	}
	if c.ctl, err = netclient.Dial(c.laddr, 4); err != nil {
		return c, err
	}
	if o.follower {
		c.ffs = o.countingFS()
		fcfg := netserver.Config{Shards: numShards, MaxConns: 8, Follow: c.laddr}
		fcfg.WAL = mvgc.WALOptions{
			Dir: filepath.Join(c.root, "follower"), FS: c.ffs, Fsync: "always",
			SegmentBytes: o.z.segmentBytes, CheckpointBytes: o.z.checkpointBytes,
		}
		var faddr string
		if c.follower, faddr, err = serve(fcfg); err != nil {
			return c, err
		}
		if c.fctl, err = netclient.Dial(faddr, 4); err != nil {
			return c, err
		}
		if err = c.awaitFollower(30 * time.Second); err != nil {
			return c, err
		}
	}
	for i := 0; i < o.nclients; i++ {
		nc, err := netclient.Dial(c.laddr, clientWindow)
		if err != nil {
			return c, err
		}
		c.clients = append(c.clients, &client{c: nc, id: i, w: o.w})
	}
	return c, nil
}

// stop closes clients, shuts both servers down gracefully and removes the
// scratch directory.  Safe on a partly started cluster.
func (c *cluster) stop() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, cl := range c.clients {
		keep(cl.c.Close())
	}
	for _, nc := range []*netclient.Client{c.ctl, c.fctl} {
		if nc != nil {
			keep(nc.Close())
		}
	}
	if c.follower != nil {
		keep(c.follower.Shutdown())
	}
	if c.leader != nil {
		keep(c.leader.Shutdown())
	}
	if c.root != "" {
		keep(os.RemoveAll(c.root))
	}
	return first
}

// stats fetches and parses a server's STATS reply.
func stats(nc *netclient.Client) (map[string]int64, error) {
	s, err := nc.Stats()
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, f := range strings.Fields(s) {
		if k, v, ok := strings.Cut(f, "="); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				out[k] = n
			}
		}
	}
	return out, nil
}

// replLag reports how many GSNs the follower trails the leader by.
func (c *cluster) replLag() (lag int64, err error) {
	ls, err := stats(c.ctl)
	if err != nil {
		return 0, err
	}
	fs, err := stats(c.fctl)
	if err != nil {
		return 0, err
	}
	return ls["gsn"] - max(fs["repl_pos"], fs["repl_floor"]), nil
}

// barrierKey lies outside every workload's key space.
const barrierKey = int64(-1)

// awaitFollower waits until the follower has applied everything the
// leader has committed.  The load must have stopped.  It first writes one
// barrier record: the follower's repl_pos is the GSN of the last frame it
// processed, and two shards' last commits can sit in the log in the
// opposite order of their GSNs, which would leave repl_pos one short of
// the leader's gsn for ever.  A lone write is last in both orders.
func (c *cluster) awaitFollower(timeout time.Duration) error {
	c.barriers++
	if err := c.ctl.Set(barrierKey, c.barriers); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for {
		lag, err := c.replLag()
		if err != nil {
			return err
		}
		if lag <= 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower still %d GSNs behind after %v", lag, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// client is one benchmark connection and what it knows about its own
// writes.
type client struct {
	c   *netclient.Client
	id  int
	w   string
	seq int64
	// acked[k] is the sequence of this client's last acknowledged SET of
	// key k.  The slice is shared between clients that own disjoint keys.
	acked []int64
	// model holds the balances this client has moved with MCAS (ladder
	// only: a single replaying client is the only writer, so its model of
	// the accounts is exact and every MCAS must succeed).
	model map[int64]int64
}

// inflight is one request awaiting its in-order reply.
type inflight struct {
	p    *netclient.Pending
	o    op
	seq  int64
	due  time.Time // open loop: when the op was scheduled to be sent
	span int32
}

func (cl *client) balance(k int64) int64 {
	if v, ok := cl.model[k]; ok {
		return v
	}
	return initialValue(cl.w, k)
}

// issue encodes o into the connection's write buffer.
func (cl *client) issue(o op) inflight {
	f := inflight{o: o, span: -1}
	switch o.kind {
	case opGet:
		f.p = cl.c.GetAsync(o.key)
	case opSet:
		cl.seq++
		f.seq = cl.seq
		f.p = cl.c.SetAsync(o.key, encVal(o.key, cl.id, cl.seq))
	case opScan:
		f.p = cl.c.ScanAsync(o.key, o.n)
	case opTxn:
		from, to := cl.balance(o.key), cl.balance(o.to)
		if cl.model == nil {
			cl.model = map[int64]int64{}
		}
		cl.model[o.key], cl.model[o.to] = from-1, to+1
		f.p = cl.c.MCASAsync([]int64{o.key, o.to}, []int64{from, to}, []int64{from - 1, to + 1})
	}
	return f
}

// valueOK verifies a value read under key k against what any writer of
// workload w could have stored there.
func valueOK(w string, k, v int64) bool {
	if w == wlEmbeddedTxn && isAccount(k) {
		return v >= 0 && v <= 2*initialBalance
	}
	return valKey(v) == k
}

// complete waits for f's reply and verifies it; it reports whether the
// op succeeded with a correct result.
func (cl *client) complete(f inflight) bool {
	switch f.o.kind {
	case opGet:
		v, found, err := f.p.Value()
		return err == nil && found && valueOK(cl.w, f.o.key, v)
	case opSet:
		if f.p.Err() != nil {
			return false
		}
		if cl.acked != nil {
			cl.acked[f.o.key] = f.seq
		}
		return true
	case opScan:
		es, err := f.p.Entries()
		if err != nil || len(es) > f.o.n {
			return false
		}
		prev := f.o.key - 1
		for _, e := range es {
			if e.Key <= prev || !valueOK(cl.w, e.Key, e.Val) {
				return false
			}
			prev = e.Key
		}
		return true
	case opTxn:
		n, err := f.p.Int()
		return err == nil && n == 1
	}
	return false
}

// sliceDur is the length of the time slices a phase is cut into.  This
// box slows down in bursts (other tenants of the host), so a phase reports
// the median over its slices — of the slice's rate, of the slice's
// percentile — which a burst shorter than half the phase cannot move.
const sliceDur = 500 * time.Millisecond

// slice is what completed in one sliceDur of a phase.
type slice struct {
	ops, failed int64
	lat         *hist // nil until the slice's first timed op
}

// loopResult is what one load phase measured.
type loopResult struct {
	start             time.Time
	ops, failed, sets int64
	elapsed           time.Duration
	slices            []slice
	late              int64 // open loop only: ops sent more than lateAfter past due
}

// slot returns slice i, growing the phase to hold it.
func (r *loopResult) slot(i int) *slice {
	for len(r.slices) <= i {
		r.slices = append(r.slices, slice{})
	}
	return &r.slices[i]
}

// count records one completed op in t's slice.
func (r *loopResult) count(t time.Time, ok bool) *slice {
	s := r.slot(int(t.Sub(r.start) / sliceDur))
	s.ops++
	r.ops++
	if !ok {
		s.failed++
		r.failed++
	}
	return s
}

// timed is count plus the op's latency.
func (r *loopResult) timed(t time.Time, ok bool, ns int64) {
	s := r.count(t, ok)
	if s.lat == nil {
		s.lat = &hist{}
	}
	s.lat.record(ns)
}

func (r *loopResult) add(o *loopResult) {
	r.ops += o.ops
	r.failed += o.failed
	r.sets += o.sets
	r.late += o.late
	for i := range o.slices {
		d, s := r.slot(i), &o.slices[i]
		d.ops += s.ops
		d.failed += s.failed
		if s.lat != nil {
			if d.lat == nil {
				d.lat = &hist{}
			}
			d.lat.merge(s.lat)
		}
	}
}

// whole returns the slices that lie entirely inside the phase.
func (r *loopResult) whole(dur time.Duration) []slice {
	return r.slices[:min(len(r.slices), int(dur/sliceDur))]
}

// opsPerSec is the median slice's verified ops per second; phases shorter
// than two slices fall back to the phase total.
func (r *loopResult) opsPerSec(dur time.Duration) float64 {
	ws := r.whole(dur)
	if len(ws) < 2 {
		return float64(r.ops-r.failed) / r.elapsed.Seconds()
	}
	rates := make([]float64, len(ws))
	for i, s := range ws {
		rates[i] = float64(s.ops-s.failed) / sliceDur.Seconds()
	}
	return median(rates)
}

// lat merges every slice's latencies.
func (r *loopResult) lat() *hist {
	h := &hist{}
	for _, s := range r.slices {
		if s.lat != nil {
			h.merge(s.lat)
		}
	}
	return h
}

// quantileUs is the median over slices of the slice's q-quantile, in µs.
func (r *loopResult) quantileUs(dur time.Duration, q float64) float64 {
	var qs []float64
	for _, s := range r.whole(dur) {
		if s.lat != nil {
			qs = append(qs, s.lat.quantile(q)/1e3)
		}
	}
	if len(qs) < 2 {
		return r.lat().quantile(q) / 1e3
	}
	return median(qs)
}

// tracing is where a traced pass hangs its per-op spans.
type tracing struct {
	tr     *tracer
	parent int32
	name   uint16
}

// pipeline keeps up to depth requests in flight on the connection:
// windowed pipelining, the next request leaves only when the oldest reply
// has arrived (replies are in order, so the oldest completes first).  next
// supplies the ops until it reports false; done sees every verified reply.
// With tracing, each op gets a span from issue to verified reply.
func (cl *client) pipeline(depth int, tg tracing, next func() (op, bool), done func(o op, ok bool)) error {
	window := make([]inflight, depth)
	head, n := 0, 0
	retire := func() {
		f := window[head]
		head = (head + 1) % depth
		n--
		ok := cl.complete(f)
		tg.tr.end(f.span)
		done(f.o, ok)
	}
	for i := int32(0); ; i++ {
		o, more := next()
		if !more {
			break
		}
		sp := tg.tr.begin(tg.name, tg.parent, i)
		f := cl.issue(o)
		f.span = sp
		window[(head+n)%depth] = f
		n++
		if n == depth {
			// Window full: push the batch to the wire, then retire the oldest.
			if err := cl.c.Flush(); err != nil {
				return err
			}
			retire()
		}
	}
	if err := cl.c.Flush(); err != nil {
		return err
	}
	for n > 0 {
		retire()
	}
	return nil
}

// runClosed is one connection's closed loop until the deadline.
func (cl *client) runClosed(gen opGen, depth int, start, deadline time.Time, tg tracing) (r loopResult, err error) {
	r.start = start
	now := time.Now() // refreshed every 64 ops: slices need no finer clock
	issued := 0
	err = cl.pipeline(depth, tg, func() (op, bool) {
		if issued&63 == 0 {
			if now = time.Now(); !now.Before(deadline) {
				return op{}, false
			}
		}
		issued++
		return gen.next(), true
	}, func(o op, ok bool) {
		if o.kind == opSet {
			r.sets++
		}
		r.count(now, ok)
	})
	return r, err
}

// fanOut runs one loop per client concurrently and merges what they
// measured.
func fanOut(n int, run func(i int, start time.Time) (loopResult, error)) (loopResult, error) {
	var (
		wg   sync.WaitGroup
		rs   = make([]loopResult, n)
		errs = make([]error, n)
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs[i], errs[i] = run(i, start)
		}(i)
	}
	wg.Wait()
	total := loopResult{start: start, elapsed: time.Since(start)}
	for i := range rs {
		total.add(&rs[i])
	}
	return total, errors.Join(errs...)
}

// closedLoop runs every client's closed loop for dur and merges them.
func closedLoop(cs []*client, gens []opGen, depth int, dur time.Duration, tg tracing) (loopResult, error) {
	return fanOut(len(cs), func(i int, start time.Time) (loopResult, error) {
		return cs[i].runClosed(gens[i], depth, start, start.Add(dur), tg)
	})
}

// lateAfter is how far past its due time a send counts as the generator
// running late.
const lateAfter = time.Millisecond

// runOpen sends count ops on a fixed schedule regardless of replies and
// times each from its due time, so a stall is charged to every op it
// delays.  A second goroutine collects the in-order replies.
func (cl *client) runOpen(gen opGen, start time.Time, interval time.Duration, count int) (r loopResult, err error) {
	// Sized so the sender never blocks on the hand-off before the
	// netclient window itself applies backpressure.
	sent := make(chan inflight, 2*clientWindow)
	done := make(chan struct{})
	r.start = start
	go func() {
		defer close(done)
		for f := range sent {
			ok := cl.complete(f)
			r.timed(f.due, ok, int64(time.Since(f.due)))
		}
	}()
	var late, sets int64
	for i := 0; i < count; i++ {
		due := start.Add(time.Duration(i) * interval)
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			if err = cl.c.Flush(); err != nil {
				break
			}
			time.Sleep(wait)
			now = time.Now()
		}
		if now.Sub(due) > lateAfter {
			late++
		}
		o := gen.next()
		if o.kind == opSet {
			sets++
		}
		f := cl.issue(o)
		f.due = due
		sent <- f
	}
	if ferr := cl.c.Flush(); err == nil {
		err = ferr
	}
	close(sent)
	<-done
	r.late, r.sets = late, sets
	return r, err
}

// openLoop drives rate ops/s, split evenly over the clients, for dur.
func openLoop(cs []*client, gens []opGen, rate float64, dur time.Duration) (loopResult, error) {
	interval := time.Duration(float64(time.Second) * float64(len(cs)) / rate)
	count := int(math.Ceil(float64(dur) / float64(interval)))
	return fanOut(len(cs), func(i int, start time.Time) (loopResult, error) {
		return cs[i].runOpen(gens[i], start, interval, count)
	})
}

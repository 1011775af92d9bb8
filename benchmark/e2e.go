package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"mvgc"
	"mvgc/internal/netclient"
)

// runCtx is what every pass over a workload is given.
type runCtx struct {
	z       sizes
	seed    uint64
	seconds float64 // measured time of the pass
	scratch string  // directory inside the checkout for logs and crash copies
	full    bool    // ledger sizes: enables the checks that need a full-length run
}

func (c *runCtx) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// warmSalt separates the warm-up streams from the measured ones.
const warmSalt = 0x5eedfa57

func streams(w string, z sizes, seed uint64, n int) []opGen {
	gens := make([]opGen, n)
	for i := range gens {
		gens[i] = newStream(w, z, seed, i)
	}
	return gens
}

// sampler tracks the retained-version count and the Go heap while a
// phase runs, one sample every 10 ms plus one at the end.
type sampler struct {
	stop, done   chan struct{}
	peakVersions int
	sumVersions  int64
	n            int64
	peakHeap     uint64 // objects not yet freed: live data plus the garbage of the current GC cycle
	sumLive      uint64 // what the most recent collection found live, summed over the samples
}

// startSampler normalises the heap with one collection and starts
// sampling uncollected() and the bytes of live-or-unswept heap objects
// (what MemStats calls HeapAlloc).
func startSampler(uncollected func() int) *sampler {
	runtime.GC()
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		// runtime/metrics, not ReadMemStats: a hundred stop-the-worlds a
		// second would be part of what is measured.
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/live:bytes"}}
		for {
			u := uncollected()
			s.peakVersions = max(s.peakVersions, u)
			s.sumVersions += int64(u)
			s.n++
			metrics.Read(heap)
			s.peakHeap = max(s.peakHeap, heap[0].Value.Uint64())
			s.sumLive += heap[1].Value.Uint64()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

func (s *sampler) meanVersions() float64 { return float64(s.sumVersions) / float64(s.n) }
func (s *sampler) peakHeapMiB() float64  { return float64(s.peakHeap) / (1 << 20) }
func (s *sampler) liveHeapMiB() float64  { return float64(s.sumLive) / float64(s.n) / (1 << 20) }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// putCommon records the metrics every workload's closed-loop phase yields.
func putCommon(r *result, setups []float64, res *loopResult, dur time.Duration, allocBytes uint64, s *sampler) {
	m := r.metrics
	m.putN("setup_s", median(setups), "s", int64(len(setups)))
	m.putN("ops_s", res.opsPerSec(dur), "ops/s", int64(len(res.whole(dur))))
	m.put("alloc_b_op", float64(allocBytes)/float64(max(res.ops, 1)), "B/op")
	m.put("peak_versions", float64(s.peakVersions), "count")
	m.putN("mean_versions", s.meanVersions(), "count", s.n)
	m.put("peak_heap_mib", s.peakHeapMiB(), "MiB")
	m.put("live_heap_mib", s.liveHeapMiB(), "MiB")
	r.attempted += res.ops
	r.failed += res.failed
}

// putLatExtras records what the whole latency sample supports beyond the
// ledger's two percentiles.
func putLatExtras(m metricSet, lat *hist) {
	q, v := lat.pmax()
	m.put("driver.lat_samples", float64(lat.n), "count")
	m.putN("driver.lat_pmax_us", v/1e3, "us", lat.n)
	m.put("driver.lat_pmax_q", q, "ratio")
}

func putFailFrac(r *result) {
	r.metrics.put("fail_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
}

// openLoopShare splits phase B's half of the measured time over the three
// rates; the middle rate, the ledger's latency point, gets most of it.
var openLoopShare = [3]float64{0.1, 0.3, 0.1}

// openLoopLimitUs and openLoopLateLimit define driver.rate_ok: the highest
// fixed rate whose p99 stays under the limit without the generator
// falling behind.
const (
	openLoopLimitUs   = 5000
	openLoopLateLimit = 0.01
)

// setupWire opens, preloads and warms a wire workload's cluster
// c.z.setups times and keeps the last; it returns each set-up's seconds.
func setupWire(c *runCtx, w string) (cl *cluster, setups []float64, err error) {
	durable := w == wlWriteDur
	opts := clusterOpts{w: w, z: c.z, wal: durable, follower: durable, scratch: c.scratch, nclients: numClients}
	warm := streams(w, c.z, c.seed^warmSalt, numClients)
	for i := 0; i < c.z.setups; i++ {
		if cl != nil {
			if err := cl.stop(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		if cl, err = startCluster(opts); err != nil {
			return nil, nil, err
		}
		if durable {
			acked := make([]int64, c.z.writeKeys)
			for _, k := range cl.clients {
				k.acked = acked
			}
		}
		if _, err := closedLoop(cl.clients, warm, c.z.depth, c.z.warm, tracing{}); err != nil {
			cl.stop()
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return cl, setups, nil
}

// runWire is both wire_* workloads end to end: set-up (open, preload,
// warm-up), phase A closed loop, phase B open loop at three fixed rates,
// then the workload's correctness checks.
func runWire(c *runCtx, w string) (*result, error) {
	r := newResult()
	durable := w == wlWriteDur
	cl, setups, err := setupWire(c, w)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	gens := streams(w, c.z, c.seed, numClients)
	depth := c.z.depth

	// Phase A: closed loop.
	var fs0 fsCounters
	if durable {
		fs0 = cl.lfs.counters()
	}
	smp := startSampler(cl.leader.DB().Uncollected)
	a0 := totalAlloc()
	resA, err := closedLoop(cl.clients, gens, depth, c.dur(0.5), tracing{})
	allocA := totalAlloc() - a0
	smp.finish()
	if err != nil {
		return nil, err
	}
	putCommon(r, setups, &resA, c.dur(0.5), allocA, smp)
	sets := resA.sets

	// Phase B: open loop at three fixed rates.
	rates := c.z.ratesRead
	if durable {
		rates = c.z.ratesWrite
	}
	rateOK := 0.0
	for i, rate := range rates {
		dur := c.dur(openLoopShare[i])
		res, err := openLoop(cl.clients, gens, rate, dur)
		if err != nil {
			return nil, err
		}
		r.attempted += res.ops
		r.failed += res.failed
		sets += res.sets
		lat := res.lat()
		p50, p99 := res.quantileUs(dur, 0.50), res.quantileUs(dur, 0.99)
		lateFrac := float64(res.late) / float64(max(res.ops, 1))
		if p99 <= openLoopLimitUs && lateFrac <= openLoopLateLimit {
			rateOK = rate
		}
		m := r.metrics
		if i == 1 {
			// The middle rate is the ledger's latency point.
			m.putN("lat_p50_us", p50, "us", lat.n)
			m.putN("lat_p99_us", p99, "us", lat.n)
			putLatExtras(m, lat)
			m.put("driver.late_frac", lateFrac, "ratio")
		} else {
			tag := fmt.Sprintf(".r%d", i+1)
			m.putN("driver.lat_p50_us"+tag, p50, "us", lat.n)
			m.putN("driver.lat_p99_us"+tag, p99, "us", lat.n)
		}
	}
	r.metrics.put("driver.rate_ok", rateOK, "ops/s")

	if durable {
		if err := checkDurable(c, r, cl, fs0, sets); err != nil {
			return nil, err
		}
	}
	putFailFrac(r)
	return r, nil
}

// checkDurable is wire_write_durable's verdict: every acked SET survives a
// power cut, the follower converges on the leader, and the log went
// through several checkpoint cycles.  It also yields the two storage
// metrics.
func checkDurable(c *runCtx, r *result, cl *cluster, fs0 fsCounters, sets int64) error {
	fs1 := cl.lfs.counters()
	written := fs1.bytesWritten - fs0.bytesWritten
	m := r.metrics
	m.put("wal_bytes_per_user_byte", float64(written)/float64(16*max(sets, 1)), "ratio")
	// The log's own counters under the workload's real concurrency (the
	// ladder's are single-connection and too short to checkpoint).
	putWALMetrics(m, cl.lfs, fs0, fs1, sets, c.dur(1))
	m.put("wal.checkpoints", float64(fs1.checkpoints-fs0.checkpoints), "count")
	m.put("wal.checkpoint_s_total", float64(fs1.ckptNs-fs0.ckptNs)/1e9, "s")
	m.put("wal.checkpoint_bytes", float64(fs1.ckptBytes-fs0.ckptBytes), "B")
	if c.full {
		n := fs1.checkpoints - fs0.checkpoints
		r.check("checkpoint_cycles", n >= 3, "%d checkpoint cycles in the run, want >= 3", n)
	}

	// The power cut: all replies are in, so everything acked must be in
	// the synced prefix.  The leader stays up (a background checkpoint may
	// be mid-flight, as it could be at a real crash).
	crashDir := filepath.Join(cl.root, "crash")
	copied, err := cl.lfs.crashCopy(cl.ldir, crashDir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	db, err := mvgc.OpenDB[int64, int64, int64](mvgc.DBOptions[int64]{
		Shards: numShards,
		WAL:    &mvgc.WALOptions{Dir: crashDir, Fsync: "off"},
	}, mvgc.SumAug[int64](), nil)
	recoverS := time.Since(t0).Seconds()
	if err != nil {
		r.check("recover_open", false, "OpenDB on the crash copy: %v", err)
		return nil
	}
	r.metrics.put("recover_mb_s", float64(copied)/1e6/recoverS, "MB/s")
	acked := cl.clients[0].acked
	lost := 0
	detail := ""
	for k := range acked {
		v, ok := db.Get(int64(k))
		if !ok || valKey(v) != int64(k) || valSeq(v) < acked[k] {
			if lost == 0 {
				detail = fmt.Sprintf("key %d: found=%v value=%#x, last acked seq %d", k, ok, v, acked[k])
			}
			lost++
		}
	}
	r.check("acked_survive_crash", lost == 0, "%d keys lost an acked SET; first: %s", lost, detail)
	if err := db.Close(); err != nil {
		return err
	}

	// The follower, once quiet, is the leader.
	if err := cl.awaitFollower(30 * time.Second); err != nil {
		r.check("follower_catches_up", false, "%v", err)
		return nil
	}
	r.check("follower_catches_up", true, "")
	same := func(name string, f func(nc *netclient.Client) (int64, error)) error {
		lv, err := f(cl.ctl)
		if err != nil {
			return err
		}
		fv, err := f(cl.fctl)
		if err != nil {
			return err
		}
		r.check("follower_"+name, lv == fv, "leader %s=%d, follower %s=%d", name, lv, name, fv)
		return nil
	}
	if err := same("len", (*netclient.Client).Len); err != nil {
		return err
	}
	return same("sum", func(nc *netclient.Client) (int64, error) { return nc.Sum(0, math.MaxInt64) })
}

// embedded is one goroutine's view of an in-process DB.
type embedded struct {
	db   *mvgc.DB[int64, int64, struct{}]
	w    string
	id   int
	seq  int64
	keys [2]int64 // reused UpdateAtomicKeys footprint
}

func openEmbedded(w string, keys int) (*mvgc.DB[int64, int64, struct{}], error) {
	// Procs is GOMAXPROCS+1 by default; pinned so the shape is the
	// ledger's, not the runner's.
	return mvgc.OpenPlainDB[int64, int64](mvgc.DBOptions[int64]{Shards: numShards, Procs: pinnedProcs + 1}, initialEntries(w, keys))
}

// scanCheck verifies a scan's entries: ascending keys from lo, every value
// plausible for its key, and every account pair seen whole sums to twice
// the initial balance — which only a consistent cut guarantees.
type scanCheck struct {
	w            string
	lo           int64
	prevK, prevV int64
	ok           bool
	visited      int64
}

func (s *scanCheck) reset(w string, lo int64) { *s = scanCheck{w: w, lo: lo, ok: true} }

func (s *scanCheck) visit(k, v int64) bool {
	if k < s.lo || (s.visited > 0 && k <= s.prevK) || !valueOK(s.w, k, v) {
		s.ok = false
	}
	if s.w == wlEmbeddedTxn && k&3 == 1 && s.visited > 0 && s.prevK == k-1 && s.prevV+v != 2*initialBalance {
		s.ok = false
	}
	s.prevK, s.prevV = k, v
	s.visited++
	return true
}

// exec runs one op against the DB and verifies its result.
func (e *embedded) exec(o op, sc *scanCheck) bool {
	switch o.kind {
	case opGet:
		v, ok := e.db.Get(o.key)
		return ok && valueOK(e.w, o.key, v)
	case opSet:
		e.seq++
		return e.db.Insert(o.key, encVal(o.key, e.id, e.seq)) == nil
	case opTxn:
		e.keys = [2]int64{o.key, o.to}
		return e.db.UpdateAtomicKeys(e.keys[:], func(t *mvgc.DBTxn[int64, int64, struct{}]) {
			from, _ := t.Get(o.key)
			to, _ := t.Get(o.to)
			if from > 0 {
				t.Insert(o.key, from-1)
				t.Insert(o.to, to+1)
			}
		}) == nil
	case opScan:
		sc.reset(e.w, o.key)
		e.db.ViewConsistent(func(s mvgc.DBSnapshot[int64, int64, struct{}]) {
			s.ScanFunc(o.key, o.n, sc.visit)
		})
		return sc.ok
	}
	return false
}

// runLoop is one goroutine's closed loop: the next call leaves when the
// previous one returns, each timed call to return.
func (e *embedded) runLoop(gen opGen, start, deadline time.Time, tg tracing) (r loopResult) {
	var sc scanCheck
	r.start = start
	prev := time.Now()
	for i := 0; ; i++ {
		if i&63 == 0 && !prev.Before(deadline) {
			break
		}
		o := gen.next()
		sp := tg.tr.begin(tg.name, tg.parent, int32(i))
		ok := e.exec(o, &sc)
		tg.tr.end(sp)
		now := time.Now()
		r.timed(now, ok, int64(now.Sub(prev)))
		prev = now
	}
	return r
}

func embeddedLoop(es []*embedded, gens []opGen, dur time.Duration, tg tracing) loopResult {
	total, _ := fanOut(len(es), func(i int, start time.Time) (loopResult, error) {
		return es[i].runLoop(gens[i], start, start.Add(dur), tg), nil
	})
	return total
}

// setupEmbedded opens, preloads and warms an embedded DB setups times and
// keeps the last.
func setupEmbedded(c *runCtx, w string) (db *mvgc.DB[int64, int64, struct{}], es []*embedded, setups []float64, err error) {
	warm := streams(w, c.z, c.seed^warmSalt, numClients)
	for i := 0; i < c.z.setups; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, nil, nil, err
			}
		}
		t0 := time.Now()
		if db, err = openEmbedded(w, c.z.keysOf(w)); err != nil {
			return nil, nil, nil, err
		}
		es = es[:0]
		for id := 0; id < numClients; id++ {
			es = append(es, &embedded{db: db, w: w, id: id})
		}
		embeddedLoop(es, warm, c.z.warm, tracing{})
		setups = append(setups, time.Since(t0).Seconds())
	}
	return db, es, setups, nil
}

// runEmbeddedTxn is embedded_txn_scan end to end.
func runEmbeddedTxn(c *runCtx) (*result, error) {
	const w = wlEmbeddedTxn
	r := newResult()
	db, es, setups, err := setupEmbedded(c, w)
	if err != nil {
		return nil, err
	}
	gens := streams(w, c.z, c.seed, numClients)

	smp := startSampler(db.Uncollected)
	a0 := totalAlloc()
	res := embeddedLoop(es, gens, c.dur(1), tracing{})
	alloc := totalAlloc() - a0
	smp.finish()
	putCommon(r, setups, &res, c.dur(1), alloc, smp)
	m := r.metrics
	lat := res.lat()
	m.putN("lat_p50_us", res.quantileUs(c.dur(1), 0.50), "us", lat.n)
	m.putN("lat_p99_us", res.quantileUs(c.dur(1), 0.99), "us", lat.n)
	putLatExtras(m, lat)
	retries, fenced := db.ConsistentStats()
	m.put("shard.occ_aborts", float64(db.OCCAborts()), "count")
	m.put("shard.consistent_retries", float64(retries), "count")
	m.put("shard.consistent_fences", float64(fenced), "count")

	// A final full cut conserves the transfer sum.
	var sc scanCheck
	sc.reset(w, 0)
	var accounts, balance int64
	db.ViewConsistent(func(s mvgc.DBSnapshot[int64, int64, struct{}]) {
		s.ScanFunc(0, c.z.embKeys+1, func(k, v int64) bool {
			if isAccount(k) {
				accounts++
				balance += v
			}
			return sc.visit(k, v)
		})
	})
	r.check("final_cut_entries", sc.ok && sc.visited == int64(c.z.embKeys), "full cut visited %d of %d keys, ok=%v", sc.visited, c.z.embKeys, sc.ok)
	r.check("transfer_sum_conserved", balance == accounts*initialBalance, "accounts hold %d, want %d", balance, accounts*initialBalance)
	if err := db.Close(); err != nil {
		return nil, err
	}
	r.check("no_leaked_nodes", db.Live() == 0, "%d tree nodes live after Close", db.Live())
	putFailFrac(r)
	return r, nil
}

// storm is one pinned-reader storm: a View held for the whole storm while
// one writer commits a fixed number of point updates.
type stormResult struct {
	wall         time.Duration
	lat          hist
	peakVersions int
	meanVersions float64
	peakHeapMiB  float64
	liveHeapMiB  float64
	alloc        uint64
	failed       int64
	leaked       int // Uncollected() after release minus before the pin
	snapshotHeld bool
}

func runOneStorm(e *embedded, gen opGen, updates int, tg tracing) stormResult {
	var res stormResult
	db := e.db
	before := db.Uncollected()
	var (
		pinned  = make(chan struct{})
		release = make(chan struct{})
		done    = make(chan struct{})
	)
	probe := func(s mvgc.DBSnapshot[int64, int64, struct{}]) (sum int64) {
		for k := int64(0); k < 64; k++ {
			v, _ := s.Get(k)
			sum += v
		}
		return sum
	}
	go func() {
		defer close(done)
		db.View(func(s mvgc.DBSnapshot[int64, int64, struct{}]) {
			first := probe(s)
			close(pinned)
			<-release
			res.snapshotHeld = probe(s) == first
		})
	}()
	<-pinned

	smp := startSampler(db.Uncollected)
	a0 := totalAlloc()
	start := time.Now()
	prev := start
	for i := 0; i < updates; i++ {
		o := gen.next()
		sp := tg.tr.begin(tg.name, tg.parent, int32(i))
		ok := e.exec(o, nil)
		tg.tr.end(sp)
		now := time.Now()
		res.lat.record(int64(now.Sub(prev)))
		prev = now
		if !ok {
			res.failed++
		}
	}
	res.wall = time.Since(start)
	res.alloc = totalAlloc() - a0
	smp.finish()
	res.peakVersions, res.meanVersions = smp.peakVersions, smp.meanVersions()
	res.peakHeapMiB, res.liveHeapMiB = smp.peakHeapMiB(), smp.liveHeapMiB()

	close(release)
	<-done
	res.leaked = db.Uncollected() - before
	return res
}

// runStorm is pinned_reader_storm end to end: storms of a fixed update
// count, repeated until the measured time is used, medians reported.
func runStorm(c *runCtx) (*result, error) {
	const w = wlStorm
	r := newResult()
	var (
		db     *mvgc.DB[int64, int64, struct{}]
		setups []float64
		err    error
	)
	warm := newStream(w, c.z, c.seed^warmSalt, 0)
	var e *embedded
	for i := 0; i < c.z.setups; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if db, err = openEmbedded(w, c.z.stormKeys); err != nil {
			return nil, err
		}
		e = &embedded{db: db, w: w}
		for deadline := time.Now().Add(c.z.warm); time.Now().Before(deadline); {
			for j := 0; j < 256; j++ {
				e.exec(warm.next(), nil)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	gen := newStream(w, c.z, c.seed, 0)
	var (
		opsS, peakV, meanV, heap, live, allocs, p50s, p99s []float64
		lat                                                hist
		leaked                                             int
		held                                               = true
	)
	for start := time.Now(); len(opsS) < 2 || time.Since(start) < c.dur(1); {
		s := runOneStorm(e, gen, c.z.stormUpdates, tracing{})
		opsS = append(opsS, float64(c.z.stormUpdates)/s.wall.Seconds())
		peakV = append(peakV, float64(s.peakVersions))
		meanV = append(meanV, s.meanVersions)
		heap = append(heap, s.peakHeapMiB)
		live = append(live, s.liveHeapMiB)
		allocs = append(allocs, float64(s.alloc)/float64(c.z.stormUpdates))
		lat.merge(&s.lat)
		p50s = append(p50s, s.lat.quantile(0.50)/1e3)
		p99s = append(p99s, s.lat.quantile(0.99)/1e3)
		r.attempted += int64(c.z.stormUpdates)
		r.failed += s.failed
		leaked += max(s.leaked, -s.leaked)
		held = held && s.snapshotHeld
	}
	n := int64(len(opsS))
	m := r.metrics
	m.putN("setup_s", median(setups), "s", int64(len(setups)))
	m.putN("ops_s", median(opsS), "ops/s", n)
	m.putN("lat_p50_us", median(p50s), "us", lat.n)
	m.putN("lat_p99_us", median(p99s), "us", lat.n)
	putLatExtras(m, &lat)
	m.putN("alloc_b_op", median(allocs), "B/op", n)
	m.putN("peak_versions", maxOf(peakV), "count", n)
	m.putN("mean_versions", median(meanV), "count", n)
	m.putN("peak_heap_mib", median(heap), "MiB", n)
	m.putN("live_heap_mib", median(live), "MiB", n)
	m.put("driver.storms", float64(n), "count")
	r.check("uncollected_returns_on_release", leaked == 0, "Uncollected() moved by %d across pin and release", leaked)
	r.check("pinned_snapshot_unchanged", held, "the pinned View read different values at release than at pin")
	if err := db.Close(); err != nil {
		return nil, err
	}
	r.check("no_leaked_nodes", db.Live() == 0, "%d tree nodes live after Close", db.Live())
	putFailFrac(r)
	return r, nil
}

// runE2E runs one workload's untraced end-to-end pass.
func runE2E(c *runCtx, w string) (*result, error) {
	switch w {
	case wlReadZipf, wlWriteDur:
		return runWire(c, w)
	case wlEmbeddedTxn:
		return runEmbeddedTxn(c)
	case wlStorm:
		return runStorm(c)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", w, workloadNames)
}

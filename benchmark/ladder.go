package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mvgc"
	"mvgc/internal/batch"
	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/netclient"
	"mvgc/internal/netproto"
	"mvgc/internal/vm"
	"mvgc/internal/wal"
)

// The traced pass is the ladder: the workload's own seeded op stream is
// replayed by one goroutine at every rung of the stack the workload runs
// through — bare ftree, vm, core, batch, shard (mvgc.DB), +WAL, wire,
// wire+WAL, +follower — with a span around every call the benchmark makes
// into a layer, so a layer's tax is its rung's ns/op minus the rung below.
//
// Each rung replays kind by kind (all gets, then all sets, ...): a
// pipelined rung's wall time then divides cleanly by kind, and every rung
// prices every kind.  Kinds the stream lacks are probed with a few ops on
// the stream's own keys; their weight in the rung's ns/op is zero.

type (
	tree   = ftree.Node[int64, int64, int64]
	treeOp = ftree.Ops[int64, int64, int64]
	sumDB  = mvgc.DB[int64, int64, int64]
)

// rungRow is one line of the ladder table.
type rungRow struct {
	Rung    string             `json:"rung"`
	NsPerOp float64            `json:"ns_per_op"` // kinds weighted by the stream's mix
	Base    string             `json:"base"`      // the rung this one adds a layer to
	DeltaNs float64            `json:"delta_ns"`  // ns_per_op minus the base rung's: the layer's tax
	KindNs  map[string]float64 `json:"kind_ns"`
	KindOps map[string]int64   `json:"kind_ops"`
}

// ladderOps is the stream split by kind, and each kind's share of it.
type ladderOps struct {
	byKind [numKinds][]op
	share  [numKinds]float64
}

func makeLadderOps(w string, z sizes, seed uint64) *ladderOps {
	gen := newStream(w, z, seed, 0)
	lo := &ladderOps{}
	all := make([]op, z.ladderOps)
	for i := range all {
		all[i] = gen.next()
		lo.byKind[all[i].kind] = append(lo.byKind[all[i].kind], all[i])
	}
	for k := opKind(0); k < numKinds; k++ {
		lo.share[k] = float64(len(lo.byKind[k])) / float64(len(all))
		if len(lo.byKind[k]) > 0 {
			continue
		}
		// Probe ops: the stream's keys, recast as kind k.
		for i := 0; i < z.probeOps; i++ {
			key := all[i%len(all)].key
			o := op{kind: k, key: key}
			switch k {
			case opTxn:
				o.key, o.to = key&^3, key&^3+1
			case opScan:
				o.n = 1 + i%100
			}
			lo.byKind[k] = append(lo.byKind[k], o)
		}
	}
	return lo
}

// rung is one level of the stack the stream is replayed at.
type rung interface {
	open(l *ladder) error
	// replay runs ops (all of one kind) until done or out of budget and
	// returns how many it ran, the wall time, and how many failed.
	replay(l *ladder, k opKind, ops []op, budget time.Duration) (done int, wall time.Duration, failed int64, err error)
	close(l *ladder) error
}

// ladder is the state shared by the rungs of one traced pass.
type ladder struct {
	c       *runCtx
	z       sizes // c.z with the ladder's key cap applied
	w       string
	entries []ftree.Entry[int64, int64]
	ops     *ladderOps
	tr      *tracer
	r       *result
	depth   int
	unit    time.Duration // replay budget of one (rung, kind) cell
	root    int32         // current rung's root span
	seq     int64
}

func (l *ladder) span(name string) tracing {
	return tracing{tr: l.tr, parent: l.root, name: l.tr.id(name)}
}

func (l *ladder) nextVal(k int64) int64 {
	l.seq++
	return encVal(k, ladderWriter, l.seq)
}

// syncReplay is the replay loop of every rung whose calls return when the
// op is done: one span per op.
func syncReplay(ops []op, budget time.Duration, tg tracing, do func(o op, sp int32) bool) (done int, wall time.Duration, failed int64) {
	start := time.Now()
	for i, o := range ops {
		if i&127 == 0 && time.Since(start) > budget {
			break
		}
		sp := tg.tr.begin(tg.name, tg.parent, int32(i))
		ok := do(o, sp)
		tg.tr.end(sp)
		if !ok {
			failed++
		}
		done++
	}
	return done, time.Since(start), failed
}

// ---- ftree: bare functional-tree operations on a root ----

type ftreeRung struct {
	ops   *treeOp
	arena *ftree.Arena[int64, int64, int64]
	po    *treeOp // ops bound to arena, as every pid's are in core
	root  *tree
	// scanned counts entries visited by scans, for ns per key.
	scanned int64
}

func newTreeOps() *treeOp {
	ops := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	ops.Recycle = true // as core.NewMap sets it
	return ops
}

func (g *ftreeRung) open(l *ladder) error {
	g.ops = newTreeOps()
	g.arena = g.ops.NewArena()
	g.po = g.ops.Bound(g.arena)
	g.root = g.po.Build(l.entries)
	return nil
}

// treeExec is one op against a borrowed root; it returns the new owned
// root for writes (nil when the op wrote nothing).
func treeExec(po *treeOp, w string, root *tree, o op, val int64, scanned *int64) (next *tree, ok bool) {
	switch o.kind {
	case opGet:
		v, found := po.Find(root, o.key)
		return nil, found && valueOK(w, o.key, v)
	case opSet:
		return po.Insert(root, o.key, val), true
	case opTxn:
		from, ok1 := po.Find(root, o.key)
		to, ok2 := po.Find(root, o.to)
		mid := po.Insert(root, o.key, from-1)
		next = po.Insert(mid, o.to, to+1)
		po.Release(mid)
		return next, ok1 && ok2
	case opScan:
		n := 0
		po.ForEachCondFrom(root, o.key, func(k, v int64) bool {
			n++
			return n < o.n
		})
		*scanned += int64(n)
		return nil, true
	}
	return nil, false
}

func (g *ftreeRung) replay(l *ladder, k opKind, ops []op, budget time.Duration) (int, time.Duration, int64, error) {
	done, wall, failed := syncReplay(ops, budget, l.span("ftree."+kindNames[k]), func(o op, _ int32) bool {
		next, ok := treeExec(g.po, l.w, g.root, o, l.nextVal(o.key), &g.scanned)
		if next != nil {
			g.po.Release(g.root)
			g.root = next
		}
		return ok
	})
	return done, wall, failed, nil
}

func (g *ftreeRung) close(l *ladder) error {
	g.po.Release(g.root)
	l.r.check("ftree_rung_no_leak", g.ops.Live() == 0, "%d nodes live after releasing the root", g.ops.Live())
	return nil
}

// ---- vm: the same tree behind a Version Maintenance object ----

type vmRung struct {
	ftreeRung
	m              vm.Maintainer[tree]
	buf            []*tree
	uncollectedMax int
	acq, set, rel  uint16 // span names of the three VM calls
}

const vmPid = 1

func (g *vmRung) open(l *ladder) error {
	if err := g.ftreeRung.open(l); err != nil {
		return err
	}
	g.m = vm.New[tree]("pswf", pinnedProcs+1, g.root) // the VM now owns the root's token
	return nil
}

// vmExec is one op through the VM: acquire, run on the version, publish
// a write with Set, release and collect.  With a tracer it records the
// three VM calls as child spans of parent.
func (g *vmRung) vmExec(l *ladder, o op, tr *tracer, parent int32) bool {
	sp := tr.begin(g.acq, parent, -1)
	root := g.m.Acquire(vmPid)
	tr.end(sp)
	next, ok := treeExec(g.po, l.w, root, o, l.nextVal(o.key), &g.scanned)
	if next != nil {
		sp = tr.begin(g.set, parent, -1)
		installed := g.m.Set(vmPid, next)
		tr.end(sp)
		if !installed { // a solo writer's Set cannot fail
			g.po.Release(next)
			ok = false
		}
	}
	sp = tr.begin(g.rel, parent, -1)
	g.buf = g.m.ReleaseInto(vmPid, g.buf[:0])
	for _, dead := range g.buf {
		g.po.Release(dead)
	}
	tr.end(sp)
	return ok
}

func (g *vmRung) replay(l *ladder, k opKind, ops []op, budget time.Duration) (int, time.Duration, int64, error) {
	i := 0
	done, wall, failed := syncReplay(ops, budget, l.span("vm."+kindNames[k]), func(o op, _ int32) bool {
		if i++; i&63 == 0 {
			g.uncollectedMax = max(g.uncollectedMax, g.m.Uncollected())
		}
		return g.vmExec(l, o, nil, -1)
	})
	return done, wall, failed, nil
}

// detail replays a few gets and sets again with a span around each VM
// call.  It is separate from replay so that every rung's price carries
// exactly one span per op and the child spans' cost stays out of it.
func (g *vmRung) detail(l *ladder, n int) {
	g.acq, g.set, g.rel = l.tr.id("vm.call.acquire"), l.tr.id("vm.call.set"), l.tr.id("vm.call.release")
	for _, k := range []opKind{opGet, opSet} {
		ops := l.ops.byKind[k]
		syncReplay(ops[:min(n, len(ops))], time.Hour, l.span("vm.detail."+kindNames[k]), func(o op, parent int32) bool {
			return g.vmExec(l, o, l.tr, parent)
		})
	}
}

func (g *vmRung) close(l *ladder) error {
	for _, dead := range g.m.Drain() {
		g.po.Release(dead)
	}
	l.r.check("vm_rung_no_leak", g.ops.Live() == 0, "%d nodes live after Drain", g.ops.Live())
	return nil
}

// ---- core: core.Map transactions by pid ----

type coreRung struct {
	ops     *treeOp
	m       *core.Map[int64, int64, int64]
	h       *core.Handle[int64, int64, int64]
	scanned int64
	alloc   uint64 // bytes allocated from the Go heap across all replays
	nops    int64
}

func (g *coreRung) open(l *ladder) (err error) {
	g.ops = newTreeOps()
	if g.m, err = core.NewMap(core.Config{Procs: pinnedProcs + 1}, g.ops, l.entries); err != nil {
		return err
	}
	g.h = g.m.Handle()
	return nil
}

// coreExec is one op as a core.Map transaction on pid.
func coreExec(m *core.Map[int64, int64, int64], pid int, w string, o op, val int64, scanned *int64) (ok bool) {
	switch o.kind {
	case opGet:
		m.Read(pid, func(s core.Snapshot[int64, int64, int64]) {
			v, found := s.Get(o.key)
			ok = found && valueOK(w, o.key, v)
		})
	case opSet:
		m.Update(pid, func(t *core.Txn[int64, int64, int64]) { t.Insert(o.key, val) })
		ok = true
	case opTxn:
		m.Update(pid, func(t *core.Txn[int64, int64, int64]) {
			from, ok1 := t.Get(o.key)
			to, ok2 := t.Get(o.to)
			t.Insert(o.key, from-1)
			t.Insert(o.to, to+1)
			ok = ok1 && ok2
		})
	case opScan:
		m.Read(pid, func(s core.Snapshot[int64, int64, int64]) {
			*scanned += int64(s.ScanFunc(o.key, o.n, func(int64, int64) bool { return true }))
		})
		ok = true
	}
	return ok
}

func (g *coreRung) replay(l *ladder, k opKind, ops []op, budget time.Duration) (int, time.Duration, int64, error) {
	a0 := totalAlloc()
	pid := g.h.Pid()
	done, wall, failed := syncReplay(ops, budget, l.span("core."+kindNames[k]), func(o op, _ int32) bool {
		return coreExec(g.m, pid, l.w, o, l.nextVal(o.key), &g.scanned)
	})
	g.alloc += totalAlloc() - a0
	g.nops += int64(done)
	return done, wall, failed, nil
}

func (g *coreRung) close(l *ladder) error {
	g.h.Close()
	g.m.Close()
	l.r.check("core_rung_no_leak", g.ops.Live() == 0, "%d nodes live after Close", g.ops.Live())
	return nil
}

// ---- batch: writes through the combining writer ----

type batchRung struct {
	coreRung
	b *batch.Batcher[int64, int64, int64]
}

func (g *batchRung) open(l *ladder) error {
	if err := g.coreRung.open(l); err != nil {
		return err
	}
	g.b = batch.New(g.m, batch.Config{Clients: 1, BufCap: 1024, MaxLatency: time.Millisecond}, nil)
	g.b.Start()
	return nil
}

func (g *batchRung) replay(l *ladder, k opKind, ops []op, budget time.Duration) (int, time.Duration, int64, error) {
	if k != opSet {
		// Reads never batch and the combiner has no read-modify-write:
		// these kinds take the core path beside an idle combiner.
		return g.coreRung.replay(l, k, ops, budget)
	}
	tg := l.span("batch.submit")
	start := time.Now()
	done := 0
	for i, o := range ops {
		if i&127 == 0 && time.Since(start) > budget {
			break
		}
		sp := tg.tr.begin(tg.name, tg.parent, int32(i))
		g.b.Submit(0, batch.Request[int64, int64]{Op: batch.OpInsert, Key: o.key, Val: l.nextVal(o.key)})
		tg.tr.end(sp)
		done++
	}
	sp := l.tr.begin(l.tr.id("batch.flush"), l.root, -1)
	g.b.Flush(0)
	l.tr.end(sp)
	return done, time.Since(start), 0, nil
}

// soloWaitUs is the median of n SubmitWait calls on an idle combiner:
// what one unaccompanied write waits for its commit (≈ MaxLatency).
func (g *batchRung) soloWaitUs(l *ladder, n int) float64 {
	tg := l.span("batch.submitwait")
	var h hist
	for i := 0; i < n; i++ {
		sp := tg.tr.begin(tg.name, tg.parent, -1)
		t0 := time.Now()
		g.b.SubmitWait(0, batch.Request[int64, int64]{Op: batch.OpInsert, Key: int64(i), Val: l.nextVal(int64(i))})
		h.record(int64(time.Since(t0)))
		tg.tr.end(sp)
	}
	return h.quantile(0.5) / 1e3
}

func (g *batchRung) close(l *ladder) error {
	g.b.Stop()
	return g.coreRung.close(l)
}

// ---- shard: mvgc.DB point, transaction and scan calls; wal: the same
// with a write-ahead log, fsync always, on the real disk ----

type dbRung struct {
	name    string
	wal     bool
	db      *sumDB
	fs      *countFS
	dir     string
	keys    [2]int64
	scanned int64
}

func (g *dbRung) open(l *ladder) (err error) {
	o := mvgc.DBOptions[int64]{Shards: numShards, Procs: pinnedProcs + 1}
	if g.wal {
		if g.dir, err = os.MkdirTemp(l.c.scratch, "ladder-"+g.name+"-"); err != nil {
			return err
		}
		g.fs = newCountFS(wal.OsFS{})
		g.fs.trace(l.tr, l.root)
		o.WAL = &mvgc.WALOptions{
			Dir: g.dir, FS: g.fs, Fsync: "always",
			SegmentBytes: l.c.z.segmentBytes, CheckpointBytes: l.c.z.checkpointBytes,
		}
	}
	g.db, err = mvgc.OpenDB[int64, int64, int64](o, mvgc.SumAug[int64](), l.entries)
	return err
}

func (g *dbRung) replay(l *ladder, k opKind, ops []op, budget time.Duration) (int, time.Duration, int64, error) {
	tr := l.tr
	inner := tr.id(g.name + ".scan.inner")
	done, wall, failed := syncReplay(ops, budget, l.span(g.name+"."+kindNames[k]), func(o op, parent int32) bool {
		switch o.kind {
		case opGet:
			v, found := g.db.Get(o.key)
			return found && valueOK(l.w, o.key, v)
		case opSet:
			return g.db.Insert(o.key, l.nextVal(o.key)) == nil
		case opTxn:
			g.keys = [2]int64{o.key, o.to}
			ok := false
			err := g.db.UpdateAtomicKeys(g.keys[:], func(t *mvgc.DBTxn[int64, int64, int64]) {
				from, ok1 := t.Get(o.key)
				to, ok2 := t.Get(o.to)
				t.Insert(o.key, from-1)
				t.Insert(o.to, to+1)
				ok = ok1 && ok2
			})
			return ok && err == nil
		case opScan:
			g.db.ViewConsistent(func(s mvgc.DBSnapshot[int64, int64, int64]) {
				sp := tr.begin(inner, parent, -1)
				g.scanned += int64(s.ScanFunc(o.key, o.n, func(int64, int64) bool { return true }))
				tr.end(sp)
			})
			return true
		}
		return false
	})
	return done, wall, failed, nil
}

func (g *dbRung) close(l *ladder) error {
	err := g.db.Close()
	l.r.check(g.name+"_rung_no_leak", g.db.Live() == 0, "%d nodes live after Close", g.db.Live())
	if g.dir != "" {
		if rerr := os.RemoveAll(g.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// ---- wire, wire+wal, repl: the stream over loopback netclient ----

type wireRung struct {
	name          string
	wal, follower bool
	cl            *cluster
	// Brackets and results of the set replay.
	fs0, fs1        fsCounters
	batches0, sets  int64
	commitsPerWrite float64
	setWall         time.Duration
	setOpsS         float64
	liveBytesMax    int64
	lagMs           hist
	lagGSNMax       int64
	// Whole-rung totals and the cells measured on the idle rung.
	alloc                uint64
	nops                 int64
	pingUs, getUs, setUs float64
	recoverMBs           float64
}

func (g *wireRung) open(l *ladder) (err error) {
	g.cl, err = startCluster(clusterOpts{
		w: l.w, z: l.z, wal: g.wal, follower: g.follower, scratch: l.c.scratch, nclients: 1,
		tr: l.tr, parent: l.root,
	})
	return err
}

// pipelined replays ops on one connection with depth requests in flight
// until done or out of budget.
func pipelined(cl *client, ops []op, depth int, budget time.Duration, tg tracing) (done int, wall time.Duration, failed int64, err error) {
	start := time.Now()
	i := 0
	err = cl.pipeline(depth, tg, func() (op, bool) {
		if i == len(ops) || (i&127 == 0 && time.Since(start) > budget) {
			return op{}, false
		}
		i++
		return ops[i-1], true
	}, func(_ op, ok bool) {
		done++
		if !ok {
			failed++
		}
	})
	return done, time.Since(start), failed, err
}

func (g *wireRung) replay(l *ladder, k opKind, ops []op, budget time.Duration) (int, time.Duration, int64, error) {
	cl := g.cl.clients[0]
	var stopProbe func() error
	if k == opSet {
		st, err := stats(g.cl.ctl)
		if err != nil {
			return 0, 0, 0, err
		}
		g.batches0 = st["batches"]
		if g.cl.lfs != nil {
			g.fs0 = g.cl.lfs.counters()
		}
		if g.follower {
			stopProbe = g.probeLag()
		}
	}
	a0 := totalAlloc()
	done, wall, failed, err := pipelined(cl, ops, l.depth, budget, l.span(g.name+"."+kindNames[k]))
	g.alloc += totalAlloc() - a0
	g.nops += int64(done)
	if err != nil {
		return done, wall, failed, err
	}
	if k == opSet {
		if stopProbe != nil {
			if err := stopProbe(); err != nil {
				return done, wall, failed, err
			}
		}
		st, err := stats(g.cl.ctl)
		if err != nil {
			return done, wall, failed, err
		}
		g.commitsPerWrite = float64(st["batches"]-g.batches0) / float64(max(done, 1))
		g.liveBytesMax = max(g.liveBytesMax, st["wal_live"])
		g.setWall, g.sets = wall, int64(done)
		g.setOpsS = float64(done) / wall.Seconds()
		if g.cl.lfs != nil {
			g.fs1 = g.cl.lfs.counters()
		}
	}
	return done, wall, failed, nil
}

// probeLag measures replication lag while the set replay runs: a probe
// key is SET on the leader (the clock starts at the ack) and polled on
// the follower until visible.  The returned func stops the prober.
func (g *wireRung) probeLag() (stop func() error) {
	const probeKey = barrierKey - 1
	quit := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- func() error {
			lp, err := netclient.Dial(g.cl.laddr, 1)
			if err != nil {
				return err
			}
			defer lp.Close()
			for v := int64(1); ; v++ {
				select {
				case <-quit:
					return nil
				default:
				}
				if err := lp.Set(probeKey, v); err != nil {
					return err
				}
				t0 := time.Now()
				for {
					got, ok, err := g.cl.fctl.Get(probeKey)
					if err != nil {
						return err
					}
					if ok && got >= v {
						break
					}
					if time.Since(t0) > 10*time.Second {
						return fmt.Errorf("follower never saw probe %d", v)
					}
					time.Sleep(50 * time.Microsecond)
				}
				g.lagMs.record(int64(time.Since(t0)))
				if lag, err := g.cl.replLag(); err == nil {
					g.lagGSNMax = max(g.lagGSNMax, lag)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}()
	return func() error {
		close(quit)
		return <-errc
	}
}

// syncProbes times synchronous round trips on the idle connection:
// PING, GET and SET one at a time.
func (g *wireRung) syncProbes(l *ladder, n int) error {
	nc := g.cl.clients[0].c
	probe := func(name string, n int, f func(i int) error) (float64, error) {
		tg := l.span(name)
		var h hist
		for i := 0; i < n; i++ {
			sp := tg.tr.begin(tg.name, tg.parent, -1)
			t0 := time.Now()
			err := f(i)
			h.record(int64(time.Since(t0)))
			tg.tr.end(sp)
			if err != nil {
				return 0, err
			}
		}
		return h.quantile(0.5) / 1e3, nil
	}
	var err error
	if g.pingUs, err = probe("wire.ping.sync", n, func(int) error { return nc.Ping() }); err != nil {
		return err
	}
	if g.getUs, err = probe("wire.get.sync", n, func(i int) error { _, _, err := nc.Get(int64(i)); return err }); err != nil {
		return err
	}
	// A lone SET waits out the combiner's 1 ms timer; a tenth as many.
	g.setUs, err = probe("wire.set.sync", max(n/10, 5), func(i int) error { return nc.Set(int64(i), l.nextVal(int64(i))) })
	return err
}

// recoverSpeed crash-copies the leader's log and times OpenDB on it.
func (g *wireRung) recoverSpeed(l *ladder) error {
	dir := filepath.Join(g.cl.root, "crash")
	copied, err := g.cl.lfs.crashCopy(g.cl.ldir, dir)
	if err != nil {
		return err
	}
	sp := l.tr.begin(l.tr.id("wal.recover"), l.root, -1)
	t0 := time.Now()
	db, err := mvgc.OpenDB[int64, int64, int64](mvgc.DBOptions[int64]{
		Shards: numShards, WAL: &mvgc.WALOptions{Dir: dir, Fsync: "off"},
	}, mvgc.SumAug[int64](), nil)
	d := time.Since(t0)
	l.tr.end(sp)
	if err != nil {
		l.r.check("ladder_recover_open", false, "OpenDB on the crash copy: %v", err)
		return nil
	}
	g.recoverMBs = float64(copied) / 1e6 / d.Seconds()
	n := db.Len()
	l.r.check("ladder_recover_len", n >= int64(len(l.entries)), "recovered %d entries, preloaded %d", n, len(l.entries))
	return db.Close()
}

func (g *wireRung) close(l *ladder) error { return g.cl.stop() }

// ---- the pass ----

// putWALMetrics records the log's per-write counters between two readings
// of its counting FS.
func putWALMetrics(m metricSet, fs *countFS, c0, c1 fsCounters, writes int64, wall time.Duration) {
	w := float64(max(writes, 1))
	h := fs.syncHist(c0.nSyncs)
	m.put("wal.fsyncs_per_write", float64(c1.syncs-c0.syncs)/w, "ratio")
	m.putN("wal.fsync_us_p50", h.quantile(0.50)/1e3, "us", h.n)
	m.putN("wal.fsync_us_p99", h.quantile(0.99)/1e3, "us", h.n)
	m.put("wal.sync_busy_frac", float64(c1.syncNsTotal-c0.syncNsTotal)/float64(max(wall, 1)), "ratio")
	m.put("wal.fs_writes_per_write", float64(c1.writes-c0.writes)/w, "ratio")
	m.put("wal.bytes_per_write", float64(c1.bytesWritten-c0.bytesWritten)/w, "B")
}

// ladderKeyCap bounds the keys the ladder loads at each rung: still far
// larger than the last-level cache's share of tree nodes.
const ladderKeyCap = 250_000

const (
	rFtree = iota
	rVM
	rCore
	rBatch
	rShard
	rWAL
	rWire
	rWireWAL
	rRepl
	numRungs
)

// rungBase is the rung each rung adds one layer to.  The stack forks at
// shard: wal is the embedded path's top, and the wire path runs shard →
// wire → wire+wal → repl, so the deltas along ftree … shard, wire,
// wire+wal, repl sum to the repl rung's ns/op.
var rungBase = [numRungs]int{-1, rFtree, rVM, rCore, rBatch, rShard, rShard, rWire, rWireWAL}

// replayOrder runs transfers before sets: on the wire a transfer is an
// MCAS from the client's model of the accounts, which only transfers may
// have moved.
var replayOrder = [numKinds]opKind{opGet, opTxn, opSet, opScan}

var rungNames = [numRungs]string{"ftree", "vm", "core", "batch", "shard", "wal", "wire", "wire+wal", "repl"}

// traverses lists the rungs each workload's own path runs through.  A
// report's ladder stops there: a layer the workload never reaches is absent
// from its rows, not priced.  (The gate's single-workload traced run wants
// every per-layer metric from every workload and climbs every rung.)
var traverses = map[string][]int{
	wlReadZipf:    {rFtree, rVM, rCore, rBatch, rShard, rWire},
	wlWriteDur:    {rFtree, rVM, rCore, rBatch, rShard, rWAL, rWire, rWireWAL, rRepl},
	wlEmbeddedTxn: {rFtree, rVM, rCore, rShard},
	wlStorm:       {rFtree, rVM, rCore, rShard},
}

// runTraced is the traced pass over workload w: the ladder, the
// per-algorithm pinned-reader rows, the netproto cell and the tracing
// overhead of the workload's own closed loop.  With everyRung it climbs all
// nine rungs whatever the workload; otherwise only those the workload
// traverses, and the layers it never reaches yield no metrics.
func runTraced(c *runCtx, w, spansPath string, everyRung bool) (*result, error) {
	path, ok := traverses[w]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", w, workloadNames)
	}
	var ran [numRungs]bool
	nRungs := 0
	for i := range ran {
		ran[i] = everyRung
	}
	for _, i := range path {
		ran[i] = true
	}
	for _, r := range ran {
		if r {
			nRungs++
		}
	}
	// has reports whether every rung a metric is computed from was climbed.
	has := func(rungs ...int) bool {
		for _, i := range rungs {
			if !ran[i] {
				return false
			}
		}
		return true
	}

	spanCap := 1 << 22
	if !c.full {
		spanCap = 1 << 16
	}
	// Every rung and algorithm row loads the data again, and a follower
	// bootstraps it chunk by fsynced chunk, so the ladder caps the key
	// count; the stream is drawn over the capped key space.
	lz := c.z
	lz.readKeys = min(lz.readKeys, ladderKeyCap)
	lz.embKeys = min(lz.embKeys, ladderKeyCap)
	lz.stormKeys = min(lz.stormKeys, ladderKeyCap)
	l := &ladder{
		c: c, z: lz, w: w, tr: newTracer(spanCap), r: newResult(),
		entries: initialEntries(w, lz.keysOf(w)),
		ops:     makeLadderOps(w, lz, c.seed),
		depth:   c.z.depth,
	}
	// Time: at most 55 % for the ladder's replays — the three set replays
	// against a log get three units each, so the group commit has writes
	// to group — and 30 % for the overhead pair below; the rest is loading.
	const walSetUnits = 3
	l.unit = c.dur(0.55) / time.Duration(nRungs*int(numKinds)+3*(walSetUnits-1))
	m := l.r.metrics

	ft, vmr, cr, br := &ftreeRung{}, &vmRung{}, &coreRung{}, &batchRung{}
	sh, wl := &dbRung{name: "shard"}, &dbRung{name: "wal", wal: true}
	wi := &wireRung{name: "wire"}
	ww := &wireRung{name: "wire+wal", wal: true}
	rp := &wireRung{name: "repl", wal: true, follower: true}
	rungs := [numRungs]rung{ft, vmr, cr, br, sh, wl, wi, ww, rp}

	var rows [numRungs]rungRow
	for i, g := range rungs {
		if !ran[i] {
			continue
		}
		rows[i] = rungRow{Rung: rungNames[i], KindNs: map[string]float64{}, KindOps: map[string]int64{}}
		l.root = l.tr.begin(l.tr.id("rung:"+rungNames[i]), -1, -1)
		if err := g.open(l); err != nil {
			return nil, fmt.Errorf("rung %s: %w", rungNames[i], err)
		}
		for _, k := range replayOrder {
			budget := l.unit
			if k == opSet && i >= rWAL && i != rWire {
				budget *= walSetUnits
			}
			done, wall, failed, err := g.replay(l, k, l.ops.byKind[k], budget)
			if err != nil {
				g.close(l)
				return nil, fmt.Errorf("rung %s, %s: %w", rungNames[i], kindNames[k], err)
			}
			l.r.attempted += int64(done)
			l.r.failed += failed
			l.r.check(rungNames[i]+"_"+kindNames[k]+"_verified", failed == 0, "%d of %d ops failed or returned a wrong result", failed, done)
			ns := float64(wall.Nanoseconds()) / float64(max(done, 1))
			rows[i].KindNs[kindNames[k]] = ns
			rows[i].KindOps[kindNames[k]] = int64(done)
			rows[i].NsPerOp += l.ops.share[k] * ns
		}
		// Cells that need the rung still open.
		switch g := g.(type) {
		case *vmRung:
			g.detail(l, c.z.probeOps)
		case *batchRung:
			m.putN("batch.solo_wait_us_p50", g.soloWaitUs(l, 40), "us", 40)
		case *wireRung:
			if i == rWire {
				if err := g.syncProbes(l, 200); err != nil {
					g.close(l)
					return nil, err
				}
			}
			if i == rRepl {
				if err := g.recoverSpeed(l); err != nil {
					g.close(l)
					return nil, err
				}
			}
		}
		if err := g.close(l); err != nil {
			return nil, fmt.Errorf("rung %s: %w", rungNames[i], err)
		}
		l.tr.end(l.root)
		// The rung below is the nearest one climbed.
		b := rungBase[i]
		for b >= 0 && !ran[b] {
			b = rungBase[b]
		}
		rows[i].DeltaNs = rows[i].NsPerOp
		if b >= 0 {
			rows[i].Base = rungNames[b]
			rows[i].DeltaNs -= rows[b].NsPerOp
		}
		l.r.ladder = append(l.r.ladder, rows[i])
		runtime.GC() // the next rung loads the same data again
	}
	ns := func(r int, k opKind) float64 { return rows[r].KindNs[kindNames[k]] }
	st := l.tr.stats()

	if has(rFtree) {
		treeWrites := float64(max(rows[rFtree].KindOps["set"]+2*rows[rFtree].KindOps["txn"], 1))
		refills, spills, carves := ft.arena.Stats()
		m.put("ftree.find_ns", ns(rFtree, opGet), "ns")
		m.put("ftree.insert_ns", ns(rFtree, opSet), "ns")
		m.put("ftree.scan_ns_per_key", float64(rows[rFtree].KindOps["scan"])*ns(rFtree, opScan)/float64(max(ft.scanned, 1)), "ns")
		m.put("ftree.nodes_alloc_per_write", float64(ft.ops.Allocs()-int64(len(l.entries)))/treeWrites, "count")
		m.put("ftree.arena_refills_per_kop", 1e3*float64(refills)/treeWrites, "count")
		m.put("ftree.arena_spills_per_kop", 1e3*float64(spills)/treeWrites, "count")
		m.put("ftree.heap_carves_per_kop", 1e3*float64(carves)/treeWrites, "count")
	}
	if has(rVM) {
		m.putN("vm.acquire_release_ns", st["vm.call.acquire"].meanNs()+st["vm.call.release"].meanNs(), "ns", spanN(st["vm.call.acquire"]))
		m.putN("vm.set_ns", st["vm.call.set"].meanNs(), "ns", spanN(st["vm.call.set"]))
		m.put("vm.uncollected_max", float64(vmr.uncollectedMax), "count")
	}
	if has(rCore, rVM) {
		m.put("core.read_txn_tax_ns", ns(rCore, opGet)-ns(rVM, opGet), "ns")
		m.put("core.update_txn_tax_ns", ns(rCore, opSet)-ns(rVM, opSet), "ns")
		m.put("core.aborts_per_commit", float64(cr.m.Aborts())/float64(max(cr.m.Commits(), 1)), "ratio")
		m.put("core.alloc_b_op", float64(cr.alloc)/float64(max(cr.nops, 1)), "B/op")
	}
	if has(rBatch, rCore) {
		m.put("batch.tax_ns_per_op", ns(rBatch, opSet)-ns(rCore, opSet), "ns")
		m.put("batch.ops_per_commit", float64(br.b.Applied())/float64(max(br.b.Batches(), 1)), "count")
		m.put("batch.max_batch", float64(br.b.MaxBatchSeen()), "count")
	}
	if has(rShard, rCore) {
		views := float64(max(rows[rShard].KindOps["scan"], 1))
		m.put("shard.get_tax_ns", ns(rShard, opGet)-ns(rCore, opGet), "ns")
		m.put("shard.insert_tax_ns", ns(rShard, opSet)-ns(rCore, opSet), "ns")
		m.put("shard.txn_keys_ns", ns(rShard, opTxn), "ns")
		m.put("shard.occ_abort_frac", float64(sh.db.OCCAborts())/float64(max(rows[rShard].KindOps["txn"], 1)), "ratio")
		m.putN("shard.view_consistent_ns", st["shard.scan"].meanNs()-st["shard.scan.inner"].meanNs(), "ns", int64(views))
		m.put("shard.scan_ns_per_key", st["shard.scan.inner"].sumNs/float64(max(sh.scanned, 1)), "ns")
	}
	// wal: the direct rung prices one fsynced write; the per-write log
	// counters come from the pipelined wire+wal rung, where the combiner
	// groups commits as it does in service.
	if has(rWAL, rShard, rWireWAL, rRepl) {
		m.put("wal.tax_ns_per_write", ns(rWAL, opSet)-ns(rShard, opSet), "ns")
		putWALMetrics(m, ww.cl.lfs, ww.fs0, ww.fs1, ww.sets, ww.setWall)
		m.put("wal.live_bytes_max", float64(max(ww.liveBytesMax, rp.liveBytesMax)), "B")
		m.put("wal.recover_mb_s", rp.recoverMBs, "MB/s")
	}
	if has(rWire, rShard) {
		m.putN("wire.ping_rtt_us_p50", wi.pingUs, "us", 200)
		m.putN("wire.get_p50_us", wi.getUs, "us", 200)
		m.putN("wire.set_p50_us", wi.setUs, "us", 20)
		m.put("wire.get_tax_ns", ns(rWire, opGet)-ns(rShard, opGet), "ns")
		m.put("wire.set_tax_ns", ns(rWire, opSet)-ns(rShard, opSet), "ns")
		m.put("wire.commits_per_write", wi.commitsPerWrite, "ratio")
		m.put("wire.alloc_b_op", float64(wi.alloc)/float64(max(wi.nops, 1)), "B/op")
		netprotoCell(l)
	}
	if has(rRepl, rWireWAL) {
		m.put("repl.tax_frac", 1-rp.setOpsS/ww.setOpsS, "ratio")
		m.putN("repl.lag_ms_p50", rp.lagMs.quantile(0.50)/1e6, "ms", rp.lagMs.n)
		m.putN("repl.lag_ms_p99", rp.lagMs.quantile(0.99)/1e6, "ms", rp.lagMs.n)
		m.put("repl.lag_gsn_max", float64(rp.lagGSNMax), "count")
	}
	// The paper's headline per algorithm belongs to the pinned-reader storm.
	if everyRung || w == wlStorm {
		if err := pinnedReaderRows(l); err != nil {
			return nil, err
		}
	}
	if err := traceOverhead(l); err != nil {
		return nil, err
	}
	m.put("driver.span_clock_ns", l.tr.clockNs, "ns")
	m.put("driver.spans", float64(len(l.tr.spans)), "count")
	putFailFrac(l.r)
	if spansPath != "" {
		if err := l.tr.writeFile(spansPath); err != nil {
			return nil, err
		}
	}
	return l.r, nil
}

func spanN(s *spanStat) int64 {
	if s == nil {
		return 0
	}
	return s.n
}

// pinnedReaderRows is the paper's headline per algorithm: one process
// pins a snapshot while a writer commits algUpdates point updates on the
// stream's keys; the peak retained-version count and the writer's rate.
func pinnedReaderRows(l *ladder) error {
	var keys []int64
	for k := opKind(0); k < numKinds && len(keys) < l.c.z.algUpdates; k++ {
		for _, o := range l.ops.byKind[k] {
			keys = append(keys, o.key)
		}
	}
	// rcu is left out: its writers block on the pinned reader by design.
	for _, alg := range []string{"pswf", "sbgc", "epoch", "hp"} {
		ops := newTreeOps()
		m, err := core.NewMap(core.Config{Algorithm: alg, Procs: 2}, ops, l.entries)
		if err != nil {
			return err
		}
		pinned, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			m.Read(0, func(s core.Snapshot[int64, int64, int64]) {
				s.Get(0)
				close(pinned)
				<-release
			})
		}()
		<-pinned
		tg := tracing{tr: l.tr, parent: -1, name: l.tr.id("vm." + alg + ".update")}
		peak := 0
		start := time.Now()
		for i := 0; i < l.c.z.algUpdates; i++ {
			k := keys[i%len(keys)]
			v := l.nextVal(k)
			sp := tg.tr.begin(tg.name, tg.parent, int32(i))
			m.Update(1, func(t *core.Txn[int64, int64, int64]) { t.Insert(k, v) })
			tg.tr.end(sp)
			if i&255 == 0 {
				peak = max(peak, m.Uncollected())
			}
		}
		wall := time.Since(start)
		peak = max(peak, m.Uncollected())
		close(release)
		<-done
		m.Close()
		l.r.attempted += int64(l.c.z.algUpdates)
		l.r.check("vm_"+alg+"_no_leak", ops.Live() == 0, "%d nodes live after Close", ops.Live())
		l.r.metrics.put("vm."+alg+".peak_versions", float64(peak), "count")
		l.r.metrics.put("vm."+alg+".write_ops_s", float64(l.c.z.algUpdates)/wall.Seconds(), "ops/s")
		runtime.GC()
	}
	return nil
}

// netprotoCell prices the wire format alone: the stream's commands
// encoded by a Writer into memory and decoded back by a Reader.
func netprotoCell(l *ladder) {
	var all []op
	for k := opKind(0); k < numKinds; k++ {
		if l.ops.share[k] > 0 {
			all = append(all, l.ops.byKind[k]...)
		}
	}
	var buf bytes.Buffer
	buf.Grow(64 * len(all))
	w := netproto.NewWriter(&buf)
	a0 := totalAlloc()
	sp := l.tr.begin(l.tr.id("netproto.encode"), -1, -1)
	t0 := time.Now()
	for _, o := range all {
		switch o.kind {
		case opSet:
			w.BeginCommand(3)
			w.ArgString(netproto.CmdSet)
			w.ArgInt(o.key)
			w.ArgInt(l.nextVal(o.key))
		case opScan:
			w.BeginCommand(3)
			w.ArgString(netproto.CmdScan)
			w.ArgInt(o.key)
			w.ArgInt(int64(o.n))
		default: // a txn travels as MCAS; priced here as its first GET
			w.BeginCommand(2)
			w.ArgString(netproto.CmdGet)
			w.ArgInt(o.key)
		}
	}
	w.Flush() //nolint:errcheck // a bytes.Buffer does not fail
	enc := time.Since(t0)
	l.tr.end(sp)

	r := netproto.NewReader(&buf)
	var cmd netproto.Command
	sp = l.tr.begin(l.tr.id("netproto.decode"), -1, -1)
	t0 = time.Now()
	decoded := 0
	for decoded < len(all) && r.ReadCommand(&cmd) == nil {
		decoded++
	}
	dec := time.Since(t0)
	l.tr.end(sp)
	alloc := totalAlloc() - a0
	n := float64(len(all))
	l.r.check("netproto_round_trip", decoded == len(all), "decoded %d of %d commands", decoded, len(all))
	l.r.metrics.put("netproto.encode_ns_per_cmd", float64(enc.Nanoseconds())/n, "ns")
	l.r.metrics.put("netproto.decode_ns_per_cmd", float64(dec.Nanoseconds())/n, "ns")
	l.r.metrics.put("netproto.alloc_b_per_cmd", float64(alloc)/n, "B")
}

// traceOverhead runs the workload's own closed loop twice on one set-up,
// untraced then with a span per op, and reports what the spans cost.
func traceOverhead(l *ladder) error {
	c, w := l.c, l.w
	dur := c.dur(0.15)
	gens := streams(w, c.z, c.seed, numClients)
	tg := tracing{tr: l.tr, parent: -1, name: l.tr.id("e2e.op")}
	one := *c // the same set-up as the end-to-end pass, once
	one.z.setups = 1
	var plain, traced float64
	a0 := uint64(0)
	var allocOps int64
	switch w {
	case wlReadZipf, wlWriteDur:
		cl, _, err := setupWire(&one, w)
		if err != nil {
			return err
		}
		defer cl.stop()
		depth := c.z.depth
		a0 = totalAlloc()
		p, err := closedLoop(cl.clients, gens, depth, dur, tracing{})
		if err != nil {
			return err
		}
		a0, allocOps = totalAlloc()-a0, p.ops
		t, err := closedLoop(cl.clients, gens, depth, dur, tg)
		if err != nil {
			return err
		}
		plain, traced = p.opsPerSec(dur), t.opsPerSec(dur)
		l.r.attempted += p.ops + t.ops
		l.r.failed += p.failed + t.failed
	case wlEmbeddedTxn:
		db, es, _, err := setupEmbedded(&one, w)
		if err != nil {
			return err
		}
		a0 = totalAlloc()
		p := embeddedLoop(es, gens, dur, tracing{})
		a0, allocOps = totalAlloc()-a0, p.ops
		t := embeddedLoop(es, gens, dur, tg)
		plain, traced = p.opsPerSec(dur), t.opsPerSec(dur)
		l.r.attempted += p.ops + t.ops
		l.r.failed += p.failed + t.failed
		retries, fenced := db.ConsistentStats()
		l.r.metrics.put("shard.occ_aborts", float64(db.OCCAborts()), "count")
		l.r.metrics.put("shard.consistent_retries", float64(retries), "count")
		l.r.metrics.put("shard.consistent_fences", float64(fenced), "count")
		if err := db.Close(); err != nil {
			return err
		}
	case wlStorm:
		db, err := openEmbedded(w, c.z.stormKeys)
		if err != nil {
			return err
		}
		e := &embedded{db: db, w: w}
		runOneStorm(e, gens[0], c.z.stormUpdates, tracing{}) // warm
		a0 = totalAlloc()
		p := runOneStorm(e, gens[0], c.z.stormUpdates, tracing{})
		a0, allocOps = totalAlloc()-a0, int64(c.z.stormUpdates)
		t := runOneStorm(e, gens[0], c.z.stormUpdates, tg)
		plain = float64(c.z.stormUpdates) / p.wall.Seconds()
		traced = float64(c.z.stormUpdates) / t.wall.Seconds()
		l.r.attempted += 2 * int64(c.z.stormUpdates)
		l.r.failed += p.failed + t.failed
		if err := db.Close(); err != nil {
			return err
		}
	default:
		return errors.New("unknown workload " + w)
	}
	l.r.metrics.put("driver.trace_overhead_frac", 1-traced/plain, "ratio")
	l.r.metrics.put("driver.untraced_ops_s", plain, "ops/s")
	l.r.metrics.put("driver.alloc_b_op", float64(a0)/float64(max(allocOps, 1)), "B/op")
	return nil
}

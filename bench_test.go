// Benchmark entry points, one per table and figure of the paper's
// evaluation (Section 7), plus the ablations called out in DESIGN.md.
// Each benchmark runs a scaled-down configuration per iteration and
// reports the experiment's own metrics via b.ReportMetric; the full-scale
// versions are the same internal/experiments cells with the paper's knobs.
//
//	go test -run '^$' -bench 'Table2|Figure7$|Table3|LongReader|Txn' -benchtime 1x .
//	go test -bench . -benchmem .
package mvgc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mvgc/internal/batch"
	"mvgc/internal/core"
	"mvgc/internal/experiments"
	"mvgc/internal/ftree"
	"mvgc/internal/shard"
	"mvgc/internal/vlist"
	"mvgc/internal/vm"
	"mvgc/internal/wal"
	"mvgc/internal/ycsb"
)

// benchProcs keeps the experiment benches bounded on small CI hosts while
// still exercising real concurrency.
const benchProcs = 8

func smallTable2() experiments.Table2Config {
	cfg := experiments.DefaultTable2()
	cfg.N = 100_000
	cfg.Procs = benchProcs
	cfg.Duration = 200 * time.Millisecond
	return cfg
}

// BenchmarkTable2 regenerates one Table 2 cell per algorithm: query and
// update throughput plus the max-version count under a single writer and
// P-1 range-sum readers.
func BenchmarkTable2(b *testing.B) {
	for _, alg := range vm.Names() {
		for _, gran := range [][2]int{{10, 10}, {10, 1000}, {1000, 10}, {1000, 1000}} {
			b.Run(fmt.Sprintf("%s/nq=%d/nu=%d", alg, gran[0], gran[1]), func(b *testing.B) {
				cfg := smallTable2()
				var q, u float64
				var v int64
				for i := 0; i < b.N; i++ {
					c := experiments.RunTable2Cell(cfg, alg, gran[0], gran[1])
					q += c.QueryMops
					u += c.UpdateMops
					v = c.MaxVersions
				}
				b.ReportMetric(q/float64(b.N), "Mqueries/s")
				b.ReportMetric(u/float64(b.N), "Mupdates/s")
				b.ReportMetric(float64(v), "max-versions")
			})
		}
	}
}

// BenchmarkFigure6 regenerates the Figure 6 series: max uncollected
// versions versus update granularity at nq=10.
func BenchmarkFigure6(b *testing.B) {
	for _, alg := range []string{"pswf", "pslf", "hp", "epoch", "rcu"} {
		for _, nu := range []int{1, 100, 10000} {
			b.Run(fmt.Sprintf("%s/nu=%d", alg, nu), func(b *testing.B) {
				cfg := smallTable2()
				var v int64
				for i := 0; i < b.N; i++ {
					c := experiments.RunTable2Cell(cfg, alg, 10, nu)
					v = c.MaxVersions
				}
				b.ReportMetric(float64(v), "max-versions")
			})
		}
	}
}

// BenchmarkFigure7 regenerates the YCSB comparison: ours (batched
// functional tree) against the concurrent baselines on workloads A/B/C.
func BenchmarkFigure7(b *testing.B) {
	cfg := experiments.DefaultFigure7()
	cfg.Records = 200_000
	cfg.Threads = benchProcs
	cfg.Duration = 200 * time.Millisecond
	cfg.MaxLatency = 2 * time.Millisecond
	for _, s := range cfg.Structures {
		for _, w := range cfg.Workloads {
			b.Run(fmt.Sprintf("%s/%s", s, w.Name[:1]), func(b *testing.B) {
				var mops float64
				for i := 0; i < b.N; i++ {
					mops += experiments.RunFigure7Cell(cfg, s, w)
				}
				b.ReportMetric(mops/float64(b.N), "Mops/s")
			})
		}
	}
}

// BenchmarkFigure7ShardScaling sweeps the shard count S for the sharded
// structure on the update-heavy workload A: every shard adds an independent
// combining writer, so update throughput should grow with S until the
// machine runs out of cores (S=1 approximates the unsharded "ours").
func BenchmarkFigure7ShardScaling(b *testing.B) {
	cfg := experiments.DefaultFigure7()
	cfg.Records = 200_000
	cfg.Threads = benchProcs
	cfg.Duration = 200 * time.Millisecond
	cfg.MaxLatency = 2 * time.Millisecond
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := cfg
			cfg.Shards = shards
			var mops float64
			for i := 0; i < b.N; i++ {
				mops += experiments.RunFigure7Cell(cfg, "ours-sharded", ycsb.WorkloadA)
			}
			b.ReportMetric(mops/float64(b.N), "Mops/s")
		})
	}
}

// BenchmarkDBGet prices the pid-free point read on one map: a scoped lease
// (Map.With — what shard.Map and DB point ops use) is one CAS at each end
// of the transaction and allocates nothing.
func BenchmarkDBGet(b *testing.B) {
	ops := ftree.New(ftree.IntCmp[uint64], NoAug[uint64, uint64](), 0)
	initial := make([]Entry[uint64, uint64], 100_000)
	for i := range initial {
		initial[i] = Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
	}
	m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: benchProcs}, ops, initial)
	if err != nil {
		b.Fatal(err)
	}
	get := func(h *core.Handle[uint64, uint64, struct{}], k uint64) {
		h.Read(func(s core.Snapshot[uint64, uint64, struct{}]) { s.Get(k) })
	}
	b.Run("with", func(b *testing.B) {
		rng := ycsb.NewSplitMix64(10)
		for i := 0; i < b.N; i++ {
			k := rng.Next() % 100_000
			m.With(func(h *core.Handle[uint64, uint64, struct{}]) { get(h, k) })
		}
	})
	b.Run("with-parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			rng := ycsb.NewSplitMix64(11)
			for pb.Next() {
				k := rng.Next() % 100_000
				m.With(func(h *core.Handle[uint64, uint64, struct{}]) { get(h, k) })
			}
		})
	})
	b.StopTimer()
	m.Close()
}

// BenchmarkDBPointOps measures the pid-free front door end to end: point
// ops lease a pid per transaction (core.Map.With), so this quantifies what a goroutine-per-request server sees.
func BenchmarkDBPointOps(b *testing.B) {
	initial := make([]Entry[uint64, uint64], 100_000)
	for i := range initial {
		initial[i] = Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
	}
	for _, shards := range []int{1, 8} {
		db, err := OpenPlainDB[uint64, uint64](DBOptions[uint64]{Shards: shards, Procs: benchProcs}, initial)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("get/shards=%d", shards), func(b *testing.B) {
			rng := ycsb.NewSplitMix64(8)
			for i := 0; i < b.N; i++ {
				db.Get(rng.Next() % 100_000)
			}
		})
		b.Run(fmt.Sprintf("insert/shards=%d", shards), func(b *testing.B) {
			rng := ycsb.NewSplitMix64(9)
			for i := 0; i < b.N; i++ {
				db.Insert(rng.Next()%100_000, uint64(i))
			}
		})
		db.Close()
		if live := db.Live(); live != 0 {
			b.Fatalf("leaked %d nodes", live)
		}
	}
}

// BenchmarkTable3 regenerates the inverted-index co-running rows: Tu, Tq
// and Tu+q, whose near-equality of Tu+Tq and Tu+q is the paper's claim.
// The "p=N/S=1" rows sweep the query threads on the paper's single index;
// "p=N/S=2" is the two-shard row at the sweep's largest p.
func BenchmarkTable3(b *testing.B) {
	cfg := experiments.DefaultTable3()
	cfg.Threads = benchProcs
	cfg.InitialDocs = 400
	cfg.Vocab = 10_000
	cfg.Window = 300 * time.Millisecond
	row := func(b *testing.B, cfg experiments.Table3Config, p int) {
		var tu, tq, tuq float64
		for i := 0; i < b.N; i++ {
			r := experiments.RunTable3Row(cfg, p)
			tu += r.Tu
			tq += r.Tq
			tuq += r.Tuq
		}
		n := float64(b.N)
		b.ReportMetric(tu/n, "Tu-sec")
		b.ReportMetric(tq/n, "Tq-sec")
		b.ReportMetric((tu+tq)/n, "Tu+Tq-sec")
		b.ReportMetric(tuq/n, "Tu+q-sec")
	}
	sweep := experiments.QueryThreadSweep(benchProcs)
	run := func(p, shards int) {
		b.Run(fmt.Sprintf("p=%d/S=%d", p, shards), func(b *testing.B) {
			cfg := cfg
			cfg.Shards = shards
			row(b, cfg, p)
		})
	}
	for _, p := range sweep {
		run(p, 1)
	}
	run(sweep[len(sweep)-1], 2)
}

// BenchmarkLongReader regenerates the space experiment: one read
// transaction pins a snapshot while writers commit a fixed-size update
// storm.  Per algorithm it reports the peak retained versions — sbgc, hp
// and pswf plateau at O(P), epoch retains the storm — the matching peak
// heap, and the writers' throughput beside the pin.
func BenchmarkLongReader(b *testing.B) {
	cfg := experiments.DefaultLongReader()
	cfg.Records = 50_000
	cfg.Writers = 4
	cfg.OpsPerWriter = 100_000
	for _, alg := range cfg.Algorithms {
		b.Run(alg, func(b *testing.B) {
			var peak int64
			var heap uint64
			var mops float64
			for i := 0; i < b.N; i++ {
				c := experiments.RunLongReaderCell(cfg, alg)
				peak = max(peak, c.PeakVersions)
				heap = max(heap, c.PeakHeapBytes)
				mops += c.WriteMops
			}
			b.ReportMetric(float64(peak), "peak-versions")
			b.ReportMetric(float64(heap)/(1<<20), "peak-heap-MiB")
			b.ReportMetric(mops/float64(b.N), "write-Mops/s")
		})
	}
}

// BenchmarkTxn measures cross-shard transfers (2 keys each) in both commit
// modes: one GSN per transaction (txn-atomic) and the multi-key CAS
// (txn-keys).
func BenchmarkTxn(b *testing.B) {
	cfg := experiments.DefaultTxn()
	cfg.Accounts = 200_000
	cfg.Threads = benchProcs
	cfg.Shards = 4
	cfg.Duration = 200 * time.Millisecond
	for _, mode := range experiments.TxnModes {
		b.Run(mode, func(b *testing.B) {
			var mops float64
			for i := 0; i < b.N; i++ {
				mops += experiments.RunTxnCell(cfg, mode)
			}
			b.ReportMetric(mops/float64(b.N), "Mtxn/s")
		})
	}
}

// BenchmarkVMOps measures the raw acquire/release cycle and the
// acquire/set/release cycle per algorithm (Table 1's operation costs).
func BenchmarkVMOps(b *testing.B) {
	type payload struct{ x int }
	for _, name := range vm.Names() {
		b.Run("read/"+name, func(b *testing.B) {
			m := vm.New[payload](name, benchProcs, &payload{})
			for i := 0; i < b.N; i++ {
				m.Acquire(0)
				m.ReleaseInto(0, nil)
			}
		})
		b.Run("write/"+name, func(b *testing.B) {
			m := vm.New[payload](name, benchProcs, &payload{})
			for i := 0; i < b.N; i++ {
				m.Acquire(0)
				m.Set(0, &payload{x: i})
				m.ReleaseInto(0, nil)
			}
		})
	}
}

// BenchmarkAblationHelping isolates the cost/benefit of PSWF's helping
// (versus PSLF) under heavy write pressure with concurrent readers: the
// wait-free bound costs a scan of the announcement array per Set.
func BenchmarkAblationHelping(b *testing.B) {
	type payload struct{ x int }
	for _, name := range []string{"pswf", "pslf"} {
		b.Run(name, func(b *testing.B) {
			m := vm.New[payload](name, benchProcs, &payload{})
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 1; r < benchProcs; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						m.Acquire(r)
						m.ReleaseInto(r, nil)
					}
				}(r)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Acquire(0)
				m.Set(0, &payload{x: i})
				m.ReleaseInto(0, nil)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkAblationSteal measures decompose's exclusive-node fast path:
// with NoSteal, every decompose pays two extra atomic increments and a
// deferred free.
func BenchmarkAblationSteal(b *testing.B) {
	mkBatch := func(n int, seed uint64) []ftree.Entry[int64, int64] {
		rng := ycsb.NewSplitMix64(seed)
		batch := make([]ftree.Entry[int64, int64], n)
		for i := range batch {
			batch[i] = ftree.Entry[int64, int64]{Key: int64(rng.Intn(1 << 20)), Val: int64(i)}
		}
		return batch
	}
	for _, noSteal := range []bool{false, true} {
		name := "steal"
		if noSteal {
			name = "nosteal"
		}
		b.Run(name, func(b *testing.B) {
			o := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
			o.NoSteal = noSteal
			root := o.MultiInsert(nil, mkBatch(100_000, 1), nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nr := o.MultiInsert(root, mkBatch(1000, uint64(i)+2), nil)
				o.Release(root)
				root = nr
			}
			b.StopTimer()
			o.Release(root)
		})
	}
}

// BenchmarkAblationGrain sweeps the parallel divide-and-conquer cutoff for
// batch commits (Appendix F's parallel multi-insert).
func BenchmarkAblationGrain(b *testing.B) {
	for _, grain := range []int{0, 256, 2048, 16384} {
		b.Run(fmt.Sprintf("grain=%d", grain), func(b *testing.B) {
			o := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), grain)
			rng := ycsb.NewSplitMix64(3)
			base := make([]ftree.Entry[int64, int64], 300_000)
			for i := range base {
				base[i] = ftree.Entry[int64, int64]{Key: int64(rng.Intn(1 << 30)), Val: 1}
			}
			root := o.MultiInsert(nil, base, nil)
			batch := make([]ftree.Entry[int64, int64], 50_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j] = ftree.Entry[int64, int64]{Key: int64(rng.Intn(1 << 30)), Val: 2}
				}
				nr := o.MultiInsert(root, batch, nil)
				o.Release(root)
				root = nr
			}
			b.StopTimer()
			o.Release(root)
		})
	}
}

// BenchmarkAblationBatch sweeps the combiner's latency bound and measures
// the commit round-trip a sparse client observes (SubmitWait): under light
// traffic the combiner parks for up to MaxLatency between polls, so the
// bound is paid directly; under saturation (BenchmarkFigure7) it is
// irrelevant because the combiner never sleeps.
func BenchmarkAblationBatch(b *testing.B) {
	for _, lat := range []time.Duration{100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond} {
		b.Run(lat.String(), func(b *testing.B) {
			ops := ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 2048)
			m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: 2}, ops, nil)
			if err != nil {
				b.Fatal(err)
			}
			bt := batch.New(m, batch.Config{Clients: 1, BufCap: 1 << 10, MaxLatency: lat}, nil)
			bt.Start()
			rng := ycsb.NewSplitMix64(4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt.SubmitWait(0, batch.Request[uint64, uint64]{Op: batch.OpInsert, Key: rng.Next() % (1 << 22), Val: 1})
			}
			b.StopTimer()
			bt.Stop()
			m.Close()
		})
	}
}

// BenchmarkReadTxn measures the end-to-end delay-free read path: acquire,
// one tree lookup, release, collect.
func BenchmarkReadTxn(b *testing.B) {
	ops := ftree.New(ftree.IntCmp[int64], SumAug[int64](), 0)
	initial := make([]Entry[int64, int64], 1_000_000)
	for i := range initial {
		initial[i] = Entry[int64, int64]{Key: int64(i), Val: int64(i)}
	}
	m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: 2}, ops, initial)
	if err != nil {
		b.Fatal(err)
	}
	rng := ycsb.NewSplitMix64(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(0, func(s core.Snapshot[int64, int64, int64]) {
			s.Get(int64(rng.Intn(1_000_000)))
		})
	}
	b.StopTimer()
	m.Close()
}

// BenchmarkWriteTxn measures a solo writer's commit path: acquire, one
// path-copying insert, set, release, collect.
func BenchmarkWriteTxn(b *testing.B) {
	ops := ftree.New(ftree.IntCmp[int64], SumAug[int64](), 0)
	initial := make([]Entry[int64, int64], 1_000_000)
	for i := range initial {
		initial[i] = Entry[int64, int64]{Key: int64(i), Val: int64(i)}
	}
	m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: 2}, ops, initial)
	if err != nil {
		b.Fatal(err)
	}
	rng := ycsb.NewSplitMix64(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Update(0, func(tx *core.Txn[int64, int64, int64]) {
			tx.Insert(int64(rng.Intn(1_000_000)), int64(i))
		})
	}
	b.StopTimer()
	m.Close()
}

// BenchmarkVersionListDelay is the paper's §1 motivation made measurable:
// in a classic version-list MVCC store (internal/vlist), a pinned
// snapshot's read of a hot key walks every version committed above it, so
// read cost grows linearly with writer progress; in this repo's design the
// same pinned snapshot reads in O(log n) regardless of how far the writer
// has advanced, because a version is a root pointer, not a list position.
func BenchmarkVersionListDelay(b *testing.B) {
	for _, depth := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("vlist/depth=%d", depth), func(b *testing.B) {
			s := vlist.New(2, 64)
			s.Commit(map[uint64]uint64{5: 0})
			sn := s.Begin(1) // pin before the writer advances
			for i := 1; i <= depth; i++ {
				s.Commit(map[uint64]uint64{5: uint64(i)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v, ok := sn.Get(5); !ok || v != 0 {
					b.Fatal("wrong snapshot read")
				}
			}
			b.StopTimer()
			sn.End()
		})
		b.Run(fmt.Sprintf("ours/depth=%d", depth), func(b *testing.B) {
			ops := ftree.New(ftree.IntCmp[uint64], NoAug[uint64, uint64](), 0)
			m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: 2},
				ops, []Entry[uint64, uint64]{{Key: 5, Val: 0}})
			if err != nil {
				b.Fatal(err)
			}
			m.Read(1, func(s core.Snapshot[uint64, uint64, struct{}]) {
				// The writer advances `depth` versions while this
				// transaction stays pinned on the old one.
				for i := 1; i <= depth; i++ {
					m.Update(0, func(tx *core.Txn[uint64, uint64, struct{}]) {
						tx.Insert(5, uint64(i))
					})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if v, ok := s.Get(5); !ok || v != 0 {
						b.Fatal("wrong snapshot read")
					}
				}
				b.StopTimer()
			})
			m.Close()
		})
	}
}

// BenchmarkAllocPointUpdate measures the Go-heap allocation cost of a
// steady-state point update (overwriting inserts, constant tree size)
// through a leased handle, recycling on (the default: pid-local magazine
// arenas) and off (the NoRecycle ablation).  Run with -benchmem: the
// "recycle" variant must report 0 B/op once the magazines are warm —
// every node comes out of the pid's arena, the Txn struct and the
// collector's buffers are pid-local and reused, and the VM's ReleaseInto
// appends into a recycled slice.  TestPointUpdateNoAlloc gates the
// recycling path at 0 allocations.
func BenchmarkAllocPointUpdate(b *testing.B) {
	for _, recycle := range []bool{true, false} {
		name := "norecycle"
		if recycle {
			name = "recycle"
		}
		b.Run(name, func(b *testing.B) {
			ops := ftree.New(ftree.IntCmp[uint64], NoAug[uint64, uint64](), 0)
			initial := make([]Entry[uint64, uint64], 100_000)
			for i := range initial {
				initial[i] = Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
			}
			m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: 2, NoRecycle: !recycle}, ops, initial)
			if err != nil {
				b.Fatal(err)
			}
			rng := ycsb.NewSplitMix64(12)
			var k, v uint64
			f := func(tx *core.Txn[uint64, uint64, struct{}]) { tx.Insert(k, v) }
			for i := 0; i < 10_000; i++ { // warm the magazines
				k, v = rng.Next()%100_000, uint64(i)
				m.Update(0, f)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k, v = rng.Next()%100_000, uint64(i)
				m.Update(0, f)
			}
			b.StopTimer()
			m.Close()
		})
	}
}

// BenchmarkAllocBatchCommit measures the allocation cost of one combining
// commit of a 1000-entry batch (the Appendix F write path) with the
// arena's block Reserve on and off the recycling default.  Run with
// -benchmem; B/op here is per batch, not per entry.
func BenchmarkAllocBatchCommit(b *testing.B) {
	const batchN = 1000
	for _, recycle := range []bool{true, false} {
		name := "norecycle"
		if recycle {
			name = "recycle"
		}
		b.Run(name, func(b *testing.B) {
			ops := ftree.New(ftree.IntCmp[uint64], NoAug[uint64, uint64](), 2048)
			initial := make([]Entry[uint64, uint64], 100_000)
			for i := range initial {
				initial[i] = Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
			}
			m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: 2, NoRecycle: !recycle}, ops, initial)
			if err != nil {
				b.Fatal(err)
			}
			w := m.Handle()
			rng := ycsb.NewSplitMix64(13)
			entries := make([]Entry[uint64, uint64], batchN)
			fill := func() {
				for i := range entries {
					entries[i] = Entry[uint64, uint64]{Key: rng.Next() % 100_000, Val: uint64(i)}
				}
			}
			commit := func() {
				// The default InsertBatch path.
				w.Update(func(tx *core.Txn[uint64, uint64, struct{}]) { tx.InsertBatch(entries, nil) })
			}
			for i := 0; i < 5; i++ { // warm
				fill()
				commit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fill()
				b.StartTimer()
				commit()
			}
			b.StopTimer()
			w.Close()
			m.Close()
		})
	}
}

// BenchmarkScanWarm measures the steady-state cross-shard scan: 100
// entries per op off a snapshot pinned once outside the timed loop,
// streamed through the pooled loser-tree merge to a callback made once.
// Run with -benchmem: warm scans must report 0 B/op — the merge state
// (iterator stacks, tournament slice) comes from the Map's pool.
func BenchmarkScanWarm(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			initial := make([]ftree.Entry[uint64, uint64], 100_000)
			for i := range initial {
				initial[i] = ftree.Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
			}
			sm, err := shard.New(
				shard.Config[uint64]{Shards: shards, Procs: 2, Hash: ycsb.Mix64},
				func() *ftree.Ops[uint64, uint64, struct{}] {
					return ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 0)
				},
				initial, nil, nil,
			)
			if err != nil {
				b.Fatal(err)
			}
			rng := ycsb.NewSplitMix64(14)
			var sum uint64
			visit := func(k, v uint64) bool { sum += v; return true }
			sm.View(func(s shard.Snap[uint64, uint64, struct{}]) {
				for i := 0; i < 1000; i++ { // warm the scan-state pool
					s.ScanFunc(rng.Next()%100_000, 100, visit)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			sm.View(func(s shard.Snap[uint64, uint64, struct{}]) {
				for i := 0; i < b.N; i++ {
					s.ScanFunc(rng.Next()%100_000, 100, visit)
				}
			})
			b.StopTimer()
			sm.Close()
		})
	}
}

// BenchmarkAblationRecycle compares freed-node recycling against fresh
// allocation on a churn-heavy single-writer workload, where every commit
// frees roughly as many nodes as it allocates.
func BenchmarkAblationRecycle(b *testing.B) {
	for _, recycle := range []bool{false, true} {
		name := "fresh-alloc"
		if recycle {
			name = "recycle"
		}
		b.Run(name, func(b *testing.B) {
			o := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
			o.Recycle = recycle
			rng := ycsb.NewSplitMix64(7)
			var root *ftree.Node[int64, int64, int64]
			for i := 0; i < 100_000; i++ {
				nr := o.Insert(root, int64(rng.Intn(1<<20)), 1)
				o.Release(root)
				root = nr
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nr := o.Insert(root, int64(rng.Intn(1<<20)), 2)
				o.Release(root)
				root = nr
			}
			b.StopTimer()
			o.Release(root)
		})
	}
}

// BenchmarkPointUpdateLargeTree is the ledger's ftree.insert_ns one `go test
// -bench` away: a tree of 1 M keys — far larger than the cache, so every
// level of the path copy is a miss — under an arena-bound view, as every
// pid's transactions run.  "replace" overwrites a uniform key and releases
// the previous root; "delete-insert" deletes one and puts it back, two path
// copies and two collects per iteration.  Both run on keys ordered through
// ftree.New's Cmp, in wide leaves, and as natural-* on ftree.NewNatural's,
// what OpenDB builds without a Cmp, in narrow ones.  Both must report
// 0 B/op.  DESIGN.md ("The point write", "Narrow leaves") records the
// numbers.
func BenchmarkPointUpdateLargeTree(b *testing.B) {
	const n = 1_000_000
	natural, _ := ftree.NewNatural[int64, int64, int64](ftree.SumAug[int64](), 0)
	for _, ops := range []struct {
		prefix string
		o      *ftree.Ops[int64, int64, int64]
	}{{"", ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)}, {"natural-", natural}} {
		o := ops.o
		o.Recycle = true
		po := o.Bound(o.NewArena())
		entries := make([]ftree.Entry[int64, int64], n)
		for i := range entries {
			entries[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: int64(i)}
		}
		root := po.Build(entries)
		set := func(next *ftree.Node[int64, int64, int64]) {
			po.Release(root)
			root = next
		}
		rng := ycsb.NewSplitMix64(25)
		for i := 0; i < n; i++ { // warm the magazines, scatter the paths
			set(po.Insert(root, int64(rng.Intn(n)), int64(i)))
		}
		b.Run(ops.prefix+"replace", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set(po.Insert(root, int64(rng.Intn(n)), int64(i)))
			}
		})
		b.Run(ops.prefix+"delete-insert", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := int64(rng.Intn(n))
				set(po.Delete(root, k))
				set(po.Insert(root, k, int64(i)))
			}
		})
		set(nil)
		if live := o.Live(); live != 0 {
			b.Fatalf("leaked %d units", live)
		}
	}
}

// BenchmarkBatchInsertLargeTree is the batched write beside the point write
// above: the same 1 M-key tree under an arena-bound view, with the ordering
// OpenDB gives an int64 key (ftree.NewNatural), and per iteration one
// MultiInsert of 1, 16 or 256 uniform keys, all present, plus the Release of
// the version it replaced — what a combiner commit and a follower's replay
// are made of.  At the leaf a batch of 1 does what "replace" does above (one
// search, one copy of the run, one fold); what it costs beyond that is the
// descent's frame per level.  ns/entry falls as the batch's paths share
// their upper levels.  0 B/op, and a leaked unit fails it.  DESIGN.md
// ("Leaf kernels") records the numbers.
func BenchmarkBatchInsertLargeTree(b *testing.B) {
	const n = 1_000_000
	o, _ := ftree.NewNatural[int64, int64, int64](ftree.SumAug[int64](), 0)
	o.Recycle = true
	po := o.Bound(o.NewArena())
	entries := make([]ftree.Entry[int64, int64], n)
	for i := range entries {
		entries[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: int64(i)}
	}
	root := po.Build(entries)
	set := func(next *ftree.Node[int64, int64, int64]) {
		po.Release(root)
		root = next
	}
	rng := ycsb.NewSplitMix64(29)
	for i := 0; i < n; i++ { // warm the magazines, scatter the paths
		set(po.Insert(root, int64(rng.Intn(n)), int64(i)))
	}
	for _, size := range []int{1, 16, 256} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			batch := make([]ftree.Entry[int64, int64], size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j] = ftree.Entry[int64, int64]{Key: int64(rng.Intn(n)), Val: int64(i)}
				}
				set(po.MultiInsert(root, batch, nil))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/entry")
		})
	}
	set(nil)
	if live := o.Live(); live != 0 {
		b.Fatalf("leaked %d units", live)
	}
}

// BenchmarkCheckpoint prices one explicit checkpoint of a logged DB of
// 100 k int64 pairs on two shards, the log on MemFS: the consistent cut,
// the encode into one buffer while it is pinned, and the snapshot file's
// write, sync and rename.  B/op counts MemFS's own copy of the file too.
//
//	go test -run '^$' -bench '^BenchmarkCheckpoint$' -benchmem -count 3 .
func BenchmarkCheckpoint(b *testing.B) {
	initial := make([]Entry[int64, int64], 100_000)
	for i := range initial {
		initial[i] = Entry[int64, int64]{Key: int64(i), Val: int64(i)}
	}
	db, err := OpenPlainDB[int64, int64](DBOptions[int64]{
		Shards: 2, Procs: benchProcs,
		WAL: &WALOptions{Dir: "wal", FS: wal.NewMemFS()},
	}, initial)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

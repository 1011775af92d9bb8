package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mvgc/internal/baseline"
	"mvgc/internal/batch"
	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/shard"
	"mvgc/internal/ycsb"
)

// Figure7Config parameterizes the YCSB comparison of the batched
// functional tree against the concurrent baselines.
type Figure7Config struct {
	// Records is the loaded key-space size (paper: 5e7).
	Records uint64
	// Threads is the number of client threads.
	Threads int
	// Shards is the shard count S for the "ours-sharded" structure
	// (default 8).
	Shards int
	// Duration is the measured window per run.
	Duration time.Duration
	// MaxLatency bounds batched-update latency (paper: 50 ms).
	MaxLatency time.Duration
	// Structures to run; nil means ours plus every baseline.
	Structures []string
	// Workloads to run; nil means YCSB A, B, C.
	Workloads []ycsb.Workload
}

// DefaultFigure7 returns a host-scaled configuration.
func DefaultFigure7() Figure7Config {
	return Figure7Config{
		Records:    1_000_000,
		Threads:    runtime.GOMAXPROCS(0),
		Shards:     8,
		Duration:   3 * time.Second,
		MaxLatency: 50 * time.Millisecond,
		Structures: append([]string{"ours", "ours-sharded"}, baseline.Names()...),
		Workloads:  []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC},
	}
}

// RunFigure7Cell measures one (structure, workload) pair and returns
// million operations per second.
func RunFigure7Cell(cfg Figure7Config, structure string, w ycsb.Workload) float64 {
	switch structure {
	case "ours":
		return runYCSBOurs(cfg, w)
	case "ours-sharded":
		return runYCSBOursSharded(cfg, w)
	}
	m := baseline.New(structure)
	if m == nil {
		panic("unknown structure " + structure)
	}
	// Load phase: parallel, not measured.
	loadBaseline(m, cfg.Records, cfg.Threads)
	return run(cfg.Threads, cfg.Duration, func(worker int, stop *atomic.Bool, c *counter) {
		g := ycsb.NewGenerator(w, cfg.Records, uint64(worker)*0x9e3779b9+1)
		for !stop.Load() {
			op := g.Next()
			switch op.Kind {
			case ycsb.OpRead:
				m.Get(op.Key)
			case ycsb.OpScan:
				// The baselines are point structures with no ordered
				// iteration; a scan degrades to Len consecutive point
				// reads, the closest unordered analogue, and still counts
				// as one operation like everywhere else.
				for i := 0; i < op.Len; i++ {
					m.Get(op.Key + uint64(i))
				}
			default:
				m.Put(op.Key, op.Val)
			}
			c.add(1)
		}
	})
}

// loadBaseline inserts keys 0..records-1 in per-thread shuffled order:
// sorted insertion would degenerate the unbalanced external BST into a
// path and unfairly skew Figure 7 (YCSB's own loader inserts hashed keys).
func loadBaseline(m baseline.Map, records uint64, threads int) {
	var wg sync.WaitGroup
	per := records / uint64(threads)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			lo := uint64(t) * per
			hi := lo + per
			if t == threads-1 {
				hi = records
			}
			keys := make([]uint64, 0, hi-lo)
			for k := lo; k < hi; k++ {
				keys = append(keys, k)
			}
			rng := ycsb.NewSplitMix64(uint64(t)*2654435761 + 17)
			for i := len(keys) - 1; i > 0; i-- {
				j := rng.Intn(uint64(i + 1))
				keys[i], keys[j] = keys[j], keys[i]
			}
			for _, k := range keys {
				m.Put(k, k)
			}
		}(t)
	}
	wg.Wait()
}

// runYCSBOurs runs the workload against the transactional functional tree
// with Appendix-F batching: reads are delay-free read transactions;
// updates are submitted to the single combining writer.
func runYCSBOurs(cfg Figure7Config, w ycsb.Workload) float64 {
	// A fine grain lets a large commit batch fan out across all cores:
	// a 32k-request batch at grain 512 yields ~64-way parallelism.
	ops := ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 512)
	initial := make([]ftree.Entry[uint64, uint64], cfg.Records)
	for i := range initial {
		initial[i] = ftree.Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
	}
	// Processes: Threads readers + 1 combining writer, all leased handles.
	m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: cfg.Threads + 1}, ops, initial)
	if err != nil {
		panic(err)
	}
	b := batch.New(m, batch.Config{
		Clients:    cfg.Threads,
		BufCap:     1 << 15,
		MaxLatency: cfg.MaxLatency,
	}, nil)
	b.Start()
	mops := run(cfg.Threads, cfg.Duration, func(worker int, stop *atomic.Bool, c *counter) {
		h := m.Handle()
		defer h.Close()
		g := ycsb.NewGenerator(w, cfg.Records, uint64(worker)*0x51ed2701+1)
		for !stop.Load() {
			op := g.Next()
			switch op.Kind {
			case ycsb.OpRead:
				h.Read(func(s core.Snapshot[uint64, uint64, struct{}]) {
					s.Get(op.Key)
				})
			case ycsb.OpScan:
				// A short ordered scan streamed off the pinned snapshot;
				// one map, so every snapshot is trivially consistent.
				h.Read(func(s core.Snapshot[uint64, uint64, struct{}]) {
					s.ScanFunc(op.Key, op.Len, func(uint64, uint64) bool { return true })
				})
			default:
				// Updates and workload E's inserts both route through the
				// combining writer.
				b.Submit(worker, batch.Request[uint64, uint64]{Op: batch.OpInsert, Key: op.Key, Val: op.Val})
			}
			c.add(1)
		}
	})
	b.Stop()
	m.Close()
	if live := ops.Live(); live != 0 {
		panic(fmt.Sprintf("figure7 ours: leaked %d nodes", live))
	}
	return mops
}

// runYCSBOursSharded runs the workload against the sharded transactional
// tree: S independent map instances, each with its own combining writer, so
// updates commit S-wide in parallel while reads stay delay-free on their
// key's shard.  Each worker leases one long-lived handle per shard.
func runYCSBOursSharded(cfg Figure7Config, w ycsb.Workload) float64 {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 8
	}
	initial := make([]ftree.Entry[uint64, uint64], cfg.Records)
	for i := range initial {
		initial[i] = ftree.Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
	}
	// Smaller per-shard batches need a finer grain to keep the
	// multi-insert parallel; each shard also commits concurrently with
	// the others, so per-commit parallelism matters less than for the
	// single writer.
	sm, err := shard.New(
		shard.Config[uint64]{
			Shards: shards,
			// Each worker holds a long-lived read handle on every shard
			// AND pins a second per-shard lease inside ViewConsistent
			// during workload E scans; without headroom for that second
			// lease the scan would wait on a pid its own handle holds.
			Procs: 2*cfg.Threads + 1, // handle + in-scan pin per worker, 1 combiner, per shard
			Hash:  ycsb.Mix64,        // spread the sequential key space across shards
		},
		func() *ftree.Ops[uint64, uint64, struct{}] {
			return ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 512)
		},
		initial, nil, nil,
	)
	if err != nil {
		panic(err)
	}
	// One combiner per shard, committing its batches through the map's
	// commit pipeline: the deletes, then one batched insert.
	bs := make([]*batch.Batcher[uint64, uint64, struct{}], shards)
	for i := range bs {
		bs[i] = batch.NewWithCommit(batch.Config{
			Clients:    cfg.Threads,
			BufCap:     1 << 15,
			MaxLatency: cfg.MaxLatency,
		}, shard.Shard(sm, i).Ops(), func(inserts []ftree.Entry[uint64, uint64], deletes []uint64) error {
			return sm.UpdateAtomic(func(t *shard.Txn[uint64, uint64, struct{}]) {
				for _, k := range deletes {
					t.Delete(k)
				}
				t.InsertBatch(inserts, nil)
			})
		})
		bs[i].Start()
	}
	mops := run(cfg.Threads, cfg.Duration, func(worker int, stop *atomic.Bool, c *counter) {
		// One long-lived handle per shard: reads go straight to the
		// owning shard with zero per-op leasing overhead.
		handles := make([]*core.Handle[uint64, uint64, struct{}], sm.NumShards())
		for i := range handles {
			handles[i] = shard.Shard(sm, i).Handle()
			defer handles[i].Close()
		}
		g := ycsb.NewGenerator(w, cfg.Records, uint64(worker)*0x51ed2701+1)
		for !stop.Load() {
			op := g.Next()
			switch op.Kind {
			case ycsb.OpRead:
				handles[sm.ShardFor(op.Key)].Read(func(s core.Snapshot[uint64, uint64, struct{}]) {
					s.Get(op.Key)
				})
			case ycsb.OpScan:
				// Cross-shard scans pin one consistent GSN cut and stream
				// it through the pooled loser-tree merge, so workload E
				// measures the scan path with its full semantics: one
				// global snapshot per scan, never a torn per-shard mix.
				sm.ViewConsistent(func(s shard.Snap[uint64, uint64, struct{}]) {
					s.ScanFunc(op.Key, op.Len, func(uint64, uint64) bool { return true })
				})
			default:
				bs[sm.ShardFor(op.Key)].Submit(worker, batch.Request[uint64, uint64]{Op: batch.OpInsert, Key: op.Key, Val: op.Val})
			}
			c.add(1)
		}
	})
	for _, b := range bs {
		b.Stop()
	}
	sm.Close()
	if live := sm.Live(); live != 0 {
		panic(fmt.Sprintf("figure7 ours-sharded: leaked %d nodes", live))
	}
	return mops
}

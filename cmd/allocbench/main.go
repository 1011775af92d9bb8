// Command allocbench measures the Go-heap allocation cost of the write
// path — the metric the pid-local magazine allocator (ftree.Arena) is
// built to drive to zero — and emits a machine-readable BENCH_alloc/v1
// report for cmd/benchdiff and CI's artifact trail.
//
// Three paths are measured, each with recycling on (the default: arenas +
// the shared depot) and off (the NoRecycle ablation: every node fresh
// from the Go heap):
//
//	point-update   one overwriting Insert per op on a leased core handle,
//	               tree size steady — warm magazines make this 0 B/op
//	point-update-db the same through the sharded DB front door (Map.With)
//	batch-commit   one combining-writer commit of an n-entry batch per op
//	scan-warm      one 100-entry cross-shard merged scan per op on a pinned
//	               snapshot, results appended into a reused buffer — pooled
//	               iterators and the value-typed loser tree make this 0 B/op
//	               (recycling doesn't affect the read path; both cells
//	               should read identically)
//
// Usage:
//
//	allocbench -records 100000 -batch 1000 -json BENCH_alloc.json
//
// Cells are printed to stdout either way; -json also writes the report.
package main

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"mvgc"
	"mvgc/internal/bench"
	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/shard"
	"mvgc/internal/ycsb"
)

// openDB opens the sharded DB the point-update-db cell routes through.
// Shard count doesn't affect B/op (each shard's magazines recycle the same
// way); it's a flag so CI can pin it and humans can match their ycsb runs.
func openDB(records uint64, shards, procs int, noRecycle bool) (*mvgc.DB[uint64, uint64, struct{}], error) {
	return mvgc.OpenPlainDB[uint64, uint64](
		mvgc.DBOptions[uint64]{Shards: shards, Procs: procs, NoRecycle: noRecycle}, initial(records))
}

func main() {
	var (
		records  = flag.Uint64("records", 100_000, "keys preloaded into every structure")
		batch    = flag.Int("batch", 1000, "entries per batch-commit operation")
		shards   = bench.ShardsFlag("shard count for the point-update-db cell")
		procs    = flag.Int("procs", 4, "process count P per map")
		jsonPath = flag.String("json", "", "write a BENCH_alloc/v1 report to this file")
	)
	flag.Parse()

	rep := &bench.AllocReport{Records: *records, BatchSize: *batch, Procs: *procs}
	for _, recycle := range []bool{true, false} {
		rep.Results = append(rep.Results,
			cell("point-update", recycle, benchPointUpdate(*records, *procs, !recycle)),
			cell("point-update-db", recycle, benchPointUpdateDB(*records, *shards, *procs, !recycle)),
			cell("batch-commit", recycle, benchBatchCommit(*records, *batch, *procs, !recycle)),
			cell("scan-warm", recycle, benchScanWarm(*records, *shards, *procs, !recycle)),
		)
	}
	for _, r := range rep.Results {
		fmt.Printf("%-16s recycle=%-5v %8d B/op %6d allocs/op %12.0f ns/op\n",
			r.Path, r.Recycle, r.BPerOp, r.AllocsPerOp, r.NsPerOp)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "allocbench:", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "allocbench:", err)
			os.Exit(1)
		}
		f.Close()
	}
}

func cell(path string, recycle bool, r testing.BenchmarkResult) bench.AllocRecord {
	return bench.AllocRecord{
		Path:        path,
		Recycle:     recycle,
		BPerOp:      r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		NsPerOp:     float64(r.NsPerOp()),
	}
}

func initial(records uint64) []ftree.Entry[uint64, uint64] {
	out := make([]ftree.Entry[uint64, uint64], records)
	for i := range out {
		out[i] = ftree.Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
	}
	return out
}

// benchPointUpdate measures the canonical steady-state write: overwriting
// inserts through one leased handle, so the tree's size (and the arena's
// working set) is constant after the first pass.
func benchPointUpdate(records uint64, procs int, noRecycle bool) testing.BenchmarkResult {
	ops := ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 0)
	m, err := core.NewMap(core.Config{Procs: procs, NoRecycle: noRecycle}, ops, initial(records))
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocbench:", err)
		os.Exit(1)
	}
	defer m.Close()
	h := m.Handle()
	defer h.Close()
	rng := ycsb.NewSplitMix64(1)
	var k, v uint64
	f := func(tx *core.Txn[uint64, uint64, struct{}]) { tx.Insert(k, v) }
	// Warm the magazines (and the VM's steady state) before measuring.
	for i := 0; i < 10_000; i++ {
		k, v = rng.Next()%records, uint64(i)
		h.Update(f)
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k, v = rng.Next()%records, uint64(i)
			h.Update(f)
		}
	})
}

// benchPointUpdateDB measures the same write through the pid-free sharded
// front door: hash the key, lease a pid, commit.
func benchPointUpdateDB(records uint64, shards, procs int, noRecycle bool) testing.BenchmarkResult {
	db, err := openDB(records, shards, procs, noRecycle)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocbench:", err)
		os.Exit(1)
	}
	defer db.Close()
	rng := ycsb.NewSplitMix64(2)
	for i := 0; i < 10_000; i++ {
		db.Insert(rng.Next()%records, uint64(i))
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db.Insert(rng.Next()%records, uint64(i))
		}
	})
}

// benchBatchCommit measures one combining-writer commit of a batch-sized
// multi-insert per op, the Appendix F write path.
func benchBatchCommit(records uint64, batchN, procs int, noRecycle bool) testing.BenchmarkResult {
	ops := ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 2048)
	m, err := core.NewMap(core.Config{Procs: procs, NoRecycle: noRecycle}, ops, initial(records))
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocbench:", err)
		os.Exit(1)
	}
	defer m.Close()
	w := m.Handle()
	defer w.Close()
	rng := ycsb.NewSplitMix64(3)
	entries := make([]ftree.Entry[uint64, uint64], batchN)
	fill := func() {
		for i := range entries {
			entries[i] = ftree.Entry[uint64, uint64]{Key: rng.Next() % records, Val: uint64(i)}
		}
	}
	commit := func() {
		// The default InsertBatch path a non-combining caller gets.
		w.Update(func(tx *core.Txn[uint64, uint64, struct{}]) {
			tx.InsertBatch(entries, nil)
		})
	}
	for i := 0; i < 5; i++ {
		fill()
		commit()
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fill()
			b.StartTimer()
			commit()
		}
	})
}

// benchScanWarm measures the steady-state ordered-read path: a 100-entry
// cross-shard scan per op, streamed through the pooled loser-tree merge
// into a reused append buffer.  The snapshot is pinned once outside the
// timed loop — pinning allocates the per-view shard-snapshot slice, but a
// server scanning under one long-lived consistent cut (or many scans per
// pin) amortizes that to nothing, and this cell isolates the per-scan
// cost, which must be 0 B/op.
func benchScanWarm(records uint64, shards, procs int, noRecycle bool) testing.BenchmarkResult {
	sm, err := shard.New(
		shard.Config[uint64]{Shards: shards, Procs: procs, Hash: ycsb.Mix64, NoRecycle: noRecycle},
		func() *ftree.Ops[uint64, uint64, struct{}] {
			return ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 0)
		},
		initial(records),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocbench:", err)
		os.Exit(1)
	}
	defer sm.Close()
	rng := ycsb.NewSplitMix64(4)
	var buf []ftree.Entry[uint64, uint64]
	// Warm the scan-state pool (iterator stacks, tree slice) and the
	// append buffer before measuring.
	sm.View(func(s shard.Snap[uint64, uint64, struct{}]) {
		for i := 0; i < 1000; i++ {
			buf = s.ScanAppend(buf[:0], rng.Next()%records, 100)
		}
	})
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		sm.View(func(s shard.Snap[uint64, uint64, struct{}]) {
			for i := 0; i < b.N; i++ {
				buf = s.ScanAppend(buf[:0], rng.Next()%records, 100)
			}
		})
	})
}

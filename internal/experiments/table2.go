// Package experiments implements the cells of the paper's evaluation
// (Section 7): one function per table or figure cell, each returning its own
// measurement, which the root bench_test.go runs as go test benchmarks.
// Parameters default to host-scaled values; the paper's exact configuration
// (n=1e8 keys, P=141 threads, 15 s runs on 144 hyperthreads) is reachable
// through the same knobs.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/ycsb"
)

// Table2Config parameterizes one Table 2 / Figure 6 cell: a single-writer
// multi-reader workload over an augmented functional tree.  The sweep over
// transaction granularity and Version Maintenance algorithm is the caller's.
type Table2Config struct {
	// N is the initial tree size (paper: 1e8).
	N int
	// Procs is the total thread count: 1 writer + Procs-1 query threads
	// (paper: 141).
	Procs int
	// Duration is the measured run time per cell (paper: 15 s).
	Duration time.Duration
}

// DefaultTable2 returns a host-scaled configuration.
func DefaultTable2() Table2Config {
	return Table2Config{
		N:        1_000_000,
		Procs:    runtime.GOMAXPROCS(0),
		Duration: 3 * time.Second,
	}
}

// Table2Cell is the measurement for one (algorithm, nq, nu) setting.
type Table2Cell struct {
	QueryMops   float64
	UpdateMops  float64
	MaxVersions int64
}

// RunTable2Cell measures one cell: one writer committing transactions of
// nu random insertions each, Procs-1 readers each running transactions of
// nq augmented range-sum queries, for the configured duration.
func RunTable2Cell(cfg Table2Config, alg string, nq, nu int) Table2Cell {
	ops := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	initial := make([]ftree.Entry[int64, int64], cfg.N)
	for i := range initial {
		initial[i] = ftree.Entry[int64, int64]{Key: int64(i) * 2, Val: int64(i)}
	}
	m, err := core.NewMap(core.Config{Algorithm: alg, Procs: cfg.Procs}, ops, initial)
	if err != nil {
		panic(err)
	}
	m.TrackVersions = true
	keyRange := int64(cfg.N) * 2

	queries := make([]counter, cfg.Procs)
	updates := make([]counter, cfg.Procs)
	var stop atomic.Bool
	var wg sync.WaitGroup
	// Writer: one long-lived leased process identity.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := m.Handle()
		defer h.Close()
		rng := ycsb.NewSplitMix64(99)
		for !stop.Load() {
			h.Update(func(tx *core.Txn[int64, int64, int64]) {
				for i := 0; i < nu; i++ {
					tx.Insert(int64(rng.Intn(uint64(keyRange))), int64(rng.Next()>>40))
				}
			})
			updates[0].add(int64(nu))
		}
	}()
	// Readers: Procs-1 leased identities, each transaction is nq range sums.
	for p := 1; p < cfg.Procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := m.Handle()
			defer h.Close()
			rng := ycsb.NewSplitMix64(uint64(p) * 7919)
			width := keyRange / 1000
			for !stop.Load() {
				h.Read(func(s core.Snapshot[int64, int64, int64]) {
					for i := 0; i < nq; i++ {
						lo := int64(rng.Intn(uint64(keyRange)))
						_ = s.AugRange(lo, lo+width)
					}
				})
				queries[p].add(int64(nq))
			}
		}(p)
	}
	start := time.Now()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var q, u int64
	for i := range queries {
		q += queries[i].load()
		u += updates[i].load()
	}
	cell := Table2Cell{
		QueryMops:   float64(q) / elapsed / 1e6,
		UpdateMops:  float64(u) / elapsed / 1e6,
		MaxVersions: m.MaxVersions(),
	}
	m.Close()
	if live := ops.Live(); live != 0 {
		panic(fmt.Sprintf("table2 %s: leaked %d nodes", alg, live))
	}
	return cell
}

// Batching: many client goroutines submit updates to private buffers and a
// single combining writer commits them in atomic batches with a parallel
// multi-insert (the paper's Appendix F), while readers run against
// consistent snapshots the whole time.
//
// Run with:
//
//	go run ./examples/batching
package main

import (
	"fmt"
	"sync"
	"time"

	"mvgc/internal/batch"
	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/ycsb"
)

const (
	clients   = 8
	perClient = 50_000
)

func main() {
	ops := ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 2048)
	// At most two transactions at once: a reader beside the combiner's commit.
	m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: 2}, ops, nil)
	if err != nil {
		panic(err)
	}
	b := batch.New(m, batch.Config{ // the combiner leases an identity per batch
		Clients:    clients,
		BufCap:     4096,
		MaxLatency: 2 * time.Millisecond, // latency bound per request
	}, nil)
	b.Start()

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := ycsb.NewSplitMix64(uint64(c) + 1)
			for i := 0; i < perClient; i++ {
				b.Submit(c, batch.Request[uint64, uint64]{
					Op:  batch.OpInsert,
					Key: rng.Next() % (1 << 20),
					Val: uint64(i),
				})
			}
			b.Flush(c) // wait until everything this client sent is durable
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.Stop()

	var size int64
	m.With(func(h *core.Handle[uint64, uint64, struct{}]) {
		h.Read(func(s core.Snapshot[uint64, uint64, struct{}]) { size = s.Len() })
	})
	fmt.Printf("%d clients submitted %d updates in %v (%.2f Mop/s)\n",
		clients, clients*perClient, elapsed.Round(time.Millisecond),
		float64(clients*perClient)/elapsed.Seconds()/1e6)
	fmt.Printf("combiner committed %d batches (largest %d); map holds %d keys\n",
		b.Batches(), b.MaxBatchSeen(), size)
	m.Close()
	fmt.Printf("leaked nodes: %d\n", ops.Live())
}

// Inverted index: a mini search engine on nested functional trees — the
// paper's Section 7.2 application.  Documents are ingested atomically (a
// query can never see half a document) while "and"-queries rank results by
// summed weight using the max-weight augmentation for O(k log n) top-k.
// No pid appears anywhere: the index leases process identities internally,
// so ingestion and queries run from plain goroutines.
//
// Run with:
//
//	go run ./examples/invertedindex
//	go run ./examples/invertedindex -queriers 8 -shards 4
package main

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mvgc/internal/invindex"
	"mvgc/internal/ycsb"
)

func main() {
	var (
		queriers = flag.Int("queriers", max(1, runtime.GOMAXPROCS(0)-1),
			"query goroutines running next to the ingesting writer (default GOMAXPROCS-1)")
		shards = flag.Int("shards", 1, "hash-partition the term tree across this many shards (1 = the paper's single index)")
		dur    = flag.Duration("dur", time.Second, "live co-running phase duration")
	)
	flag.Parse()

	ix, err := invindex.New(*shards, *queriers+1, 512) // queriers + the ingesting writer
	if err != nil {
		panic(err)
	}
	corpus := invindex.NewCorpus(invindex.CorpusConfig{
		Vocab:      20_000,
		MeanDocLen: 40,
		Seed:       42,
	})
	hot := corpus.HotTerms(16)

	// Seed corpus.
	for i := 0; i < 50; i++ {
		docs := make([]invindex.Doc, 20)
		for j := range docs {
			docs[j] = corpus.Next()
		}
		if err := ix.AddDocuments(docs); err != nil {
			panic(err)
		}
	}
	fmt.Printf("corpus: %d terms, hottest posting has %d docs\n",
		ix.Terms(), ix.PostingLen(hot[0]))

	// Live phase: one ingesting writer, several query goroutines.
	var stop atomic.Bool
	var queries atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			docs := make([]invindex.Doc, 10)
			for j := range docs {
				docs[j] = corpus.Next()
			}
			if err := ix.AddDocuments(docs); err != nil {
				panic(err)
			}
		}
	}()
	for q := 0; q < *queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := ycsb.NewSplitMix64(uint64(q) + 9)
			for !stop.Load() {
				t1 := hot[rng.Intn(uint64(len(hot)))]
				t2 := hot[rng.Intn(uint64(len(hot)))]
				ix.AndQuery(t1, t2, 10)
				queries.Add(1)
			}
		}(q)
	}
	time.Sleep(*dur)
	stop.Store(true)
	wg.Wait()

	// One final query, printed.
	res := ix.AndQuery(hot[0], hot[1], 5)
	fmt.Printf("answered %d and-queries during live ingestion\n", queries.Load())
	fmt.Printf("top-5 docs containing terms %d AND %d:\n", hot[0], hot[1])
	for i, r := range res {
		fmt.Printf("  %d. doc %-8d score %d\n", i+1, r.Doc, r.Score)
	}
	ix.Close()
	o, i := ix.LiveNodes()
	fmt.Printf("leaked nodes after close: outer=%d inner=%d\n", o, i)
}

package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mvgc/internal/invindex"
	"mvgc/internal/ycsb"
)

// Table3Config parameterizes the inverted-index co-running experiment.
type Table3Config struct {
	// Vocab and MeanDocLen shape the synthetic corpus.
	Vocab      uint64
	MeanDocLen int
	// InitialDocs is the corpus size before measurement begins.
	InitialDocs int
	// Threads is the total worker count (paper: 144).
	Threads int
	// Window is the co-running measurement window (paper: 30 s).
	Window time.Duration
	// DocsPerBatch is the ingestion batch size.
	DocsPerBatch int
	// TopK is the query result size (paper: top-10).
	TopK int
	// Shards selects the hash-partitioned ShardedIndex when positive; zero
	// runs the paper's single index.
	Shards int
}

// QueryThreadSweep returns the sweep of query-thread counts p for a total
// thread budget: 25%, 50% and all-but-one, mirroring the paper's
// p ∈ {10, 20, 40, 80} of 144.
func QueryThreadSweep(threads int) []int {
	var qts []int
	for _, f := range []int{4, 2} {
		if threads/f >= 1 {
			qts = append(qts, threads/f)
		}
	}
	if threads > 1 {
		qts = append(qts, threads-1)
	}
	if len(qts) == 0 {
		qts = []int{1}
	}
	return qts
}

// DefaultTable3 returns a host-scaled configuration.
func DefaultTable3() Table3Config {
	return Table3Config{
		Vocab:        50_000,
		MeanDocLen:   48,
		InitialDocs:  2_000,
		Threads:      runtime.GOMAXPROCS(0),
		Window:       3 * time.Second,
		DocsPerBatch: 16,
		TopK:         10,
		Shards:       2,
	}
}

// Table3Row is one line of Table 3: the time to run the updates alone
// (Tu), the queries alone (Tq), and both together (Tuq ≈ the window).
type Table3Row struct {
	QueryThreads int
	Shards       int   // 0 for the paper's single index
	Updates      int64 // documents ingested during the window
	Queries      int64 // and-queries answered during the window
	Tu, Tq, Tuq  float64
}

// table3Index is the surface the experiment drives; invindex.Index and
// invindex.ShardedIndex both provide it, pid-free.
type table3Index interface {
	AddDocuments(docs []invindex.Doc)
	AndQuery(term1, term2 uint64, k int) []invindex.ScoredDoc
	Close()
}

// RunTable3Row measures one sweep point: p query threads and one ingesting
// writer share the window; then the same number of updates and queries are
// re-run separately with all threads.  cfg.Shards > 0 swaps in the sharded
// index.
func RunTable3Row(cfg Table3Config, p int) Table3Row {
	if p >= cfg.Threads {
		p = cfg.Threads - 1 // leave room for the writer process
	}
	if p < 1 {
		p = 1
	}
	ix := mustIndex(cfg)
	corpus := invindex.NewCorpus(invindex.CorpusConfig{Vocab: cfg.Vocab, MeanDocLen: cfg.MeanDocLen, Seed: 7})
	for d := 0; d < cfg.InitialDocs; d += cfg.DocsPerBatch {
		ix.AddDocuments(nextDocs(corpus, cfg.DocsPerBatch))
	}
	hot := corpus.HotTerms(64)

	// Phase 1: co-run queries and updates for the window.
	var updates, queries atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single ingesting writer (parallel unions inside)
		defer wg.Done()
		for !stop.Load() {
			ix.AddDocuments(nextDocs(corpus, cfg.DocsPerBatch))
			updates.Add(int64(cfg.DocsPerBatch))
		}
	}()
	for q := 0; q < p; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := ycsb.NewSplitMix64(uint64(q)*31 + 5)
			for !stop.Load() {
				t1 := hot[rng.Intn(uint64(len(hot)))]
				t2 := hot[rng.Intn(uint64(len(hot)))]
				ix.AndQuery(t1, t2, cfg.TopK)
				queries.Add(1)
			}
		}(q)
	}
	start := time.Now()
	time.Sleep(cfg.Window)
	stop.Store(true)
	wg.Wait()
	tuq := time.Since(start).Seconds()
	u, q := updates.Load(), queries.Load()
	ix.Close()

	// Phase 2: the same number of updates alone, all threads available to
	// the parallel union.
	ix2 := mustIndex(cfg)
	corpus2 := invindex.NewCorpus(invindex.CorpusConfig{Vocab: cfg.Vocab, MeanDocLen: cfg.MeanDocLen, Seed: 7})
	for d := 0; d < cfg.InitialDocs; d += cfg.DocsPerBatch {
		ix2.AddDocuments(nextDocs(corpus2, cfg.DocsPerBatch))
	}
	startU := time.Now()
	for done := int64(0); done < u; done += int64(cfg.DocsPerBatch) {
		ix2.AddDocuments(nextDocs(corpus2, cfg.DocsPerBatch))
	}
	tu := time.Since(startU).Seconds()

	// Phase 3: the same number of queries alone, across all threads.
	startQ := time.Now()
	var qwg sync.WaitGroup
	per := q / int64(cfg.Threads)
	for w := 0; w < cfg.Threads; w++ {
		qwg.Add(1)
		go func(w int) {
			defer qwg.Done()
			rng := ycsb.NewSplitMix64(uint64(w)*13 + 3)
			n := per
			if w == 0 {
				n += q % int64(cfg.Threads)
			}
			for i := int64(0); i < n; i++ {
				t1 := hot[rng.Intn(uint64(len(hot)))]
				t2 := hot[rng.Intn(uint64(len(hot)))]
				ix2.AndQuery(t1, t2, cfg.TopK)
			}
		}(w)
	}
	qwg.Wait()
	tq := time.Since(startQ).Seconds()
	ix2.Close()

	return Table3Row{QueryThreads: p, Shards: cfg.Shards, Updates: u, Queries: q, Tu: tu, Tq: tq, Tuq: tuq}
}

func mustIndex(cfg Table3Config) table3Index {
	var (
		ix  table3Index
		err error
	)
	if cfg.Shards > 0 {
		ix, err = invindex.NewSharded(cfg.Shards, cfg.Threads+1, 2048)
	} else {
		ix, err = invindex.New(cfg.Threads+1, 2048)
	}
	if err != nil {
		panic(err)
	}
	return ix
}

func nextDocs(c *invindex.Corpus, n int) []invindex.Doc {
	docs := make([]invindex.Doc, n)
	for i := range docs {
		docs[i] = c.Next()
	}
	return docs
}

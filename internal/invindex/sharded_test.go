package invindex

import (
	"math/rand"
	"sync"
	"testing"
)

// queryable is the surface Index and ShardedIndex share; the equivalence
// tests below run both against the same corpus.
type queryable interface {
	AddDocuments(docs []Doc)
	AndQuery(term1, term2 uint64, k int) []ScoredDoc
	AndQueryN(terms []uint64, k int) []ScoredDoc
	OrQuery(term1, term2 uint64, k int) []ScoredDoc
	PostingLen(term uint64) int64
	Terms() int64
	Close()
}

var (
	_ queryable = (*Index)(nil)
	_ queryable = (*ShardedIndex)(nil)
)

func TestShardedAddAndQuery(t *testing.T) {
	ix, err := NewSharded(4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix.AddDocument(Doc{ID: 1, Terms: []TermWeight{{10, 5}, {20, 7}}})
	ix.AddDocument(Doc{ID: 2, Terms: []TermWeight{{10, 3}, {30, 1}}})
	ix.AddDocument(Doc{ID: 3, Terms: []TermWeight{{10, 9}, {20, 2}}})

	if n := ix.PostingLen(10); n != 3 {
		t.Fatalf("posting(10) length = %d", n)
	}
	if n := ix.Terms(); n != 3 {
		t.Fatalf("vocabulary = %d, want 3", n)
	}
	res := ix.AndQuery(10, 20, 10)
	if len(res) != 2 || res[0].Doc != 1 || res[0].Score != 12 || res[1].Doc != 3 || res[1].Score != 11 {
		t.Fatalf("results = %+v", res)
	}
	if res := ix.AndQuery(10, 999, 10); res != nil {
		t.Fatalf("query with absent term returned %v", res)
	}
	ix.Close()
	if o, i := ix.LiveNodes(); o != 0 || i != 0 {
		t.Fatalf("leak: outer %d inner %d", o, i)
	}
}

// TestShardedMatchesUnsharded ingests the same corpus into the unsharded
// and the sharded index and checks that every query form agrees at
// quiescence, for shard counts around and above the vocabulary spread.
func TestShardedMatchesUnsharded(t *testing.T) {
	c := NewCorpus(CorpusConfig{Vocab: 300, MeanDocLen: 24, Seed: 11})
	var docs []Doc
	for i := 0; i < 200; i++ {
		docs = append(docs, c.Next())
	}
	hot := c.HotTerms(12)

	ref, err := New(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref.AddDocuments(docs)
	for _, shards := range []int{1, 3, 8} {
		ix, err := NewSharded(shards, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		ix.AddDocuments(docs)
		if got, want := ix.Terms(), ref.Terms(); got != want {
			t.Fatalf("S=%d: Terms = %d, want %d", shards, got, want)
		}
		rng := rand.New(rand.NewSource(int64(shards)))
		for q := 0; q < 50; q++ {
			t1 := hot[rng.Intn(len(hot))]
			t2 := hot[rng.Intn(len(hot))]
			if got, want := ix.PostingLen(t1), ref.PostingLen(t1); got != want {
				t.Fatalf("S=%d: PostingLen(%d) = %d, want %d", shards, t1, got, want)
			}
			check := func(form string, got, want []ScoredDoc) {
				if len(got) != len(want) {
					t.Fatalf("S=%d: %s(%d,%d) = %v, want %v", shards, form, t1, t2, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("S=%d: %s(%d,%d)[%d] = %v, want %v", shards, form, t1, t2, i, got[i], want[i])
					}
				}
			}
			check("AndQuery", ix.AndQuery(t1, t2, 10), ref.AndQuery(t1, t2, 10))
			check("OrQuery", ix.OrQuery(t1, t2, 5), ref.OrQuery(t1, t2, 5))
			t3 := hot[rng.Intn(len(hot))]
			check("AndQueryN", ix.AndQueryN([]uint64{t1, t2, t3}, 10), ref.AndQueryN([]uint64{t1, t2, t3}, 10))
		}
		ix.Close()
		if o, i := ix.LiveNodes(); o != 0 || i != 0 {
			t.Fatalf("S=%d leak: outer %d inner %d", shards, o, i)
		}
	}

	// Same corpus ingested document by document — the per-document atomic
	// cross-shard install path — must agree with the batch path too.
	perDoc, err := NewSharded(3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		perDoc.AddDocument(d)
	}
	if got, want := perDoc.Terms(), ref.Terms(); got != want {
		t.Fatalf("per-doc ingest: Terms = %d, want %d", got, want)
	}
	for q := 0; q < 20; q++ {
		t1, t2 := hot[q%len(hot)], hot[(q*5+1)%len(hot)]
		got, want := perDoc.AndQuery(t1, t2, 10), ref.AndQuery(t1, t2, 10)
		if len(got) != len(want) {
			t.Fatalf("per-doc ingest: AndQuery(%d,%d) = %v, want %v", t1, t2, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("per-doc ingest: AndQuery(%d,%d)[%d] = %v, want %v", t1, t2, i, got[i], want[i])
			}
		}
	}
	perDoc.Close()
	if o, i := perDoc.LiveNodes(); o != 0 || i != 0 {
		t.Fatalf("per-doc leak: outer %d inner %d", o, i)
	}
	ref.Close()
	if o, i := ref.LiveNodes(); o != 0 || i != 0 {
		t.Fatalf("ref leak: outer %d inner %d", o, i)
	}
}

// TestShardedConcurrent races parallel ingestion against queries on every
// shard and checks ranking invariants plus precise per-shard collection.
func TestShardedConcurrent(t *testing.T) {
	ix, err := NewSharded(3, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCorpus(CorpusConfig{Vocab: 400, MeanDocLen: 24, Seed: 5})
	hot := c.HotTerms(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex // Corpus is single-threaded; two writers share it
	wg.Add(2)
	for w := 0; w < 2; w++ {
		go func() {
			defer wg.Done()
			for batch := 0; batch < 15; batch++ {
				mu.Lock()
				docs := make([]Doc, 10)
				for i := range docs {
					docs[i] = c.Next()
				}
				mu.Unlock()
				ix.AddDocuments(docs)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(stop)
	}()
	var qwg sync.WaitGroup
	for p := 0; p < 3; p++ {
		qwg.Add(1)
		go func(p int) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				t1 := hot[rng.Intn(len(hot))]
				t2 := hot[rng.Intn(len(hot))]
				res := ix.AndQuery(t1, t2, 10)
				for i := 1; i < len(res); i++ {
					if res[i].Score > res[i-1].Score {
						t.Errorf("results not ranked: %v", res)
						return
					}
				}
			}
		}(p)
	}
	qwg.Wait()
	ix.Close()
	if o, i := ix.LiveNodes(); o != 0 || i != 0 {
		t.Fatalf("leak: outer %d inner %d", o, i)
	}
}

// TestShardedDocumentAtomicity races per-document ingestion (and removal)
// of documents whose two terms live on different shards against cross-shard
// OrQuerys.  Every document carries both terms with weight 1, so any score
// other than 2 means a query observed the document under one term and not
// the other — exactly the torn state the global-stamp install protocol and
// the stable-pin read protocol exist to prevent.
func TestShardedDocumentAtomicity(t *testing.T) {
	ix, err := NewSharded(4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Find two terms on different shards.
	tA := uint64(1)
	tB := tA + 1
	for ix.m.ShardFor(tB) == ix.m.ShardFor(tA) {
		tB++
	}
	const docs = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for d := uint64(1); d <= docs; d++ {
			doc := Doc{ID: d, Terms: []TermWeight{{tA, 1}, {tB, 1}}}
			ix.AddDocument(doc)
			if d%3 == 0 {
				ix.RemoveDocument(doc)
			}
		}
	}()
	var qwg sync.WaitGroup
	for p := 0; p < 2; p++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sd := range ix.OrQuery(tA, tB, docs+1) {
					if sd.Score != 2 {
						t.Errorf("torn document %d: score %d, want 2", sd.Doc, sd.Score)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	qwg.Wait()
	ix.Close()
	if o, i := ix.LiveNodes(); o != 0 || i != 0 {
		t.Fatalf("leak: outer %d inner %d", o, i)
	}
}

// TestShardedConcurrentWrites races the two write paths over the same
// cross-shard terms: one goroutine ingests batches large enough that the
// shards commit their legs in parallel, a second ingests one document at a
// time, and a third removes documents from a preloaded set.  The final
// posting of every term must be exactly the expected set — nothing lost,
// nothing duplicated, nothing removed that was not — and nothing may leak.
func TestShardedConcurrentWrites(t *testing.T) {
	const terms, docLen = 32, 8
	ix, err := NewSharded(4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	doc := func(id uint64) Doc {
		d := Doc{ID: id}
		for j := uint64(0); j < docLen; j++ {
			d.Terms = append(d.Terms, TermWeight{Term: (id*5 + j) % terms, Weight: int64(id%97 + j + 1)})
		}
		return d
	}
	want := make(map[uint64]map[uint64]int64, terms) // term → doc → weight
	expect := func(d Doc) {
		for _, tw := range d.Terms {
			if want[tw.Term] == nil {
				want[tw.Term] = map[uint64]int64{}
			}
			want[tw.Term][d.ID] = tw.Weight
		}
	}
	var preload []Doc
	for id := uint64(10_000); id < 10_200; id++ {
		preload = append(preload, doc(id))
	}
	ix.AddDocuments(preload)
	for _, d := range preload {
		if d.ID%2 == 1 { // the even ones are removed below
			expect(d)
		}
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // batches of 40 documents: ≥ 64 entries on every shard
		defer wg.Done()
		for lo := uint64(0); lo < 400; lo += 40 {
			var docs []Doc
			for id := lo; id < lo+40; id++ {
				docs = append(docs, doc(2*id))
			}
			ix.AddDocuments(docs)
		}
	}()
	go func() {
		defer wg.Done()
		for id := uint64(0); id < 400; id++ {
			ix.AddDocument(doc(2*id + 1))
		}
	}()
	go func() {
		defer wg.Done()
		for _, d := range preload {
			if d.ID%2 == 0 {
				ix.RemoveDocument(d)
			}
		}
	}()
	wg.Wait()
	for id := uint64(0); id < 800; id++ {
		expect(doc(id))
	}

	for term := uint64(0); term < terms; term++ {
		got := ix.AndQueryN([]uint64{term}, 1<<20)
		if len(got) != len(want[term]) {
			t.Fatalf("term %d: %d postings, want %d", term, len(got), len(want[term]))
		}
		for _, sd := range got {
			if w, ok := want[term][sd.Doc]; !ok || w != sd.Score {
				t.Fatalf("term %d: doc %d weight %d, want %d (present %v)", term, sd.Doc, sd.Score, w, ok)
			}
		}
	}
	ix.Close()
	if o, i := ix.LiveNodes(); o != 0 || i != 0 {
		t.Fatalf("leak: outer %d inner %d", o, i)
	}
}

func TestShardedRemoveDocument(t *testing.T) {
	ix, err := NewSharded(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := Doc{ID: 5, Terms: []TermWeight{{10, 1}, {20, 2}, {30, 3}}}
	ix.AddDocument(d)
	ix.AddDocument(Doc{ID: 6, Terms: []TermWeight{{10, 3}}})
	ix.RemoveDocument(d)
	if n := ix.PostingLen(10); n != 1 {
		t.Fatalf("posting(10) = %d after removal, want 1", n)
	}
	if n := ix.Terms(); n != 1 {
		t.Fatalf("vocabulary = %d after removal, want 1", n)
	}
	ix.Close()
	if o, i := ix.LiveNodes(); o != 0 || i != 0 {
		t.Fatalf("leak: outer %d inner %d", o, i)
	}
}

func TestNewShardedRejectsBadShards(t *testing.T) {
	if _, err := NewSharded(0, 1, 0); err == nil {
		t.Fatal("NewSharded(0, ...) must error")
	}
}

package invindex

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mvgc/internal/shard"
)

// newIndex opens an index and registers the check every test ends with:
// after Close, no outer or inner node is live.
func newIndex(t *testing.T, shards, procs, grain int) *Index {
	t.Helper()
	ix, err := New(shards, procs, grain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ix.Close()
		if o, i := ix.LiveNodes(); o != 0 || i != 0 {
			t.Errorf("S=%d leak: outer %d inner %d", shards, o, i)
		}
	})
	return ix
}

// eachShards runs f at S=1, the paper's single index, and at S=4, where
// most queries span shards.
func eachShards(t *testing.T, f func(t *testing.T, shards int)) {
	for _, s := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", s), func(t *testing.T) { f(t, s) })
	}
}

func TestAddAndQuery(t *testing.T) {
	eachShards(t, func(t *testing.T, shards int) {
		ix := newIndex(t, shards, 2, 0)
		ix.AddDocument(Doc{ID: 1, Terms: []TermWeight{{10, 5}, {20, 7}}})
		ix.AddDocument(Doc{ID: 2, Terms: []TermWeight{{10, 3}, {30, 1}}})
		ix.AddDocument(Doc{ID: 3, Terms: []TermWeight{{10, 9}, {20, 2}}})

		if n := ix.PostingLen(10); n != 3 {
			t.Fatalf("posting(10) length = %d", n)
		}
		if n := ix.Terms(); n != 3 {
			t.Fatalf("vocabulary = %d, want 3", n)
		}
		// doc1: 5+7=12, doc3: 9+2=11 → doc1 first.
		res := ix.AndQuery(10, 20, 10)
		if len(res) != 2 || res[0].Doc != 1 || res[0].Score != 12 || res[1].Doc != 3 || res[1].Score != 11 {
			t.Fatalf("results = %+v", res)
		}
		if res := ix.AndQuery(10, 999, 10); res != nil {
			t.Fatalf("query with absent term returned %v", res)
		}
	})
}

func TestRemoveDocument(t *testing.T) {
	eachShards(t, func(t *testing.T, shards int) {
		ix := newIndex(t, shards, 1, 0)
		d := Doc{ID: 5, Terms: []TermWeight{{10, 1}, {20, 2}, {30, 3}}}
		ix.AddDocument(d)
		ix.AddDocument(Doc{ID: 6, Terms: []TermWeight{{10, 3}}})
		if err := ix.RemoveDocument(d); err != nil {
			t.Fatal(err)
		}
		if n := ix.PostingLen(10); n != 1 {
			t.Fatalf("posting(10) = %d after removal, want 1", n)
		}
		if n := ix.Terms(); n != 1 {
			t.Fatalf("vocabulary = %d after removal, want 1 (terms 20, 30 dropped)", n)
		}
	})
}

func TestOrQuery(t *testing.T) {
	eachShards(t, func(t *testing.T, shards int) {
		ix := newIndex(t, shards, 1, 0)
		ix.AddDocument(Doc{ID: 1, Terms: []TermWeight{{10, 5}}})
		ix.AddDocument(Doc{ID: 2, Terms: []TermWeight{{20, 7}}})
		ix.AddDocument(Doc{ID: 3, Terms: []TermWeight{{10, 2}, {20, 2}}})
		res := ix.OrQuery(10, 20, 10)
		// doc2: 7, doc1: 5, doc3: 4.
		if len(res) != 3 || res[0].Doc != 2 || res[1].Doc != 1 || res[2].Doc != 3 || res[2].Score != 4 {
			t.Fatalf("results = %+v", res)
		}
		// One side absent degrades to the other posting.
		if res := ix.OrQuery(10, 999, 10); len(res) != 2 {
			t.Fatalf("or with absent term = %+v", res)
		}
		if res := ix.OrQuery(998, 999, 10); res != nil {
			t.Fatalf("or with both absent = %+v", res)
		}
	})
}

func TestAndQueryN(t *testing.T) {
	eachShards(t, func(t *testing.T, shards int) {
		ix := newIndex(t, shards, 1, 0)
		ix.AddDocument(Doc{ID: 1, Terms: []TermWeight{{1, 1}, {2, 1}, {3, 1}}})
		ix.AddDocument(Doc{ID: 2, Terms: []TermWeight{{1, 9}, {2, 9}}})
		ix.AddDocument(Doc{ID: 3, Terms: []TermWeight{{1, 4}, {2, 4}, {3, 4}}})
		res := ix.AndQueryN([]uint64{1, 2, 3}, 10)
		if len(res) != 2 || res[0].Doc != 3 || res[0].Score != 12 || res[1].Doc != 1 || res[1].Score != 3 {
			t.Fatalf("results = %+v", res)
		}
		// Consistency with the 2-term query.
		a2 := ix.AndQuery(1, 2, 10)
		n2 := ix.AndQueryN([]uint64{1, 2}, 10)
		if len(a2) != len(n2) {
			t.Fatalf("AndQuery and AndQueryN disagree: %v vs %v", a2, n2)
		}
		for i := range a2 {
			if a2[i] != n2[i] {
				t.Fatalf("AndQuery and AndQueryN disagree at %d: %v vs %v", i, a2[i], n2[i])
			}
		}
		if res := ix.AndQueryN(nil, 10); res != nil {
			t.Fatal("empty term list must return nothing")
		}
		if res := ix.AndQueryN([]uint64{1, 99}, 10); res != nil {
			t.Fatal("absent term must empty the intersection")
		}
	})
}

// TestConcurrentQueriesDuringIngestion is a miniature of Table 3's dynamic
// setting: two ingesting writers race and-queries, all pid-free, and every
// answer stays ranked.
func TestConcurrentQueriesDuringIngestion(t *testing.T) {
	eachShards(t, func(t *testing.T, shards int) {
		ix := newIndex(t, shards, 4, 64)
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
					if err := ix.AddDocuments(docs); err != nil {
						t.Error(err)
						return
					}
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
					res := ix.AndQuery(hot[rng.Intn(len(hot))], hot[rng.Intn(len(hot))], 10)
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
	})
}

// TestAtomicDocumentIngestion races per-document ingestion (and removal) of
// documents carrying two terms — on different shards when there are
// several — against OrQuerys.  Every document carries both terms with
// weight 1, so any score other than 2 means a query observed the document
// under one term and not the other.
func TestAtomicDocumentIngestion(t *testing.T) {
	eachShards(t, func(t *testing.T, shards int) {
		ix := newIndex(t, shards, 4, 0)
		tA, tB := uint64(1), uint64(2)
		for shards > 1 && ix.m.ShardFor(tB) == ix.m.ShardFor(tA) {
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
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
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
	})
}

// model is the brute-force index the real one is checked against: term →
// document → weight, sharing no code with the index.
type model map[uint64]map[uint64]int64

func (m model) add(d Doc) {
	for _, tw := range d.Terms {
		if m[tw.Term] == nil {
			m[tw.Term] = map[uint64]int64{}
		}
		m[tw.Term][d.ID] += tw.Weight
	}
}

func (m model) remove(d Doc) {
	for _, tw := range d.Terms {
		delete(m[tw.Term], d.ID)
		if len(m[tw.Term]) == 0 {
			delete(m, tw.Term)
		}
	}
}

// and scores the documents carrying every term; or those carrying any.
func (m model) and(terms ...uint64) map[uint64]int64 {
	out := map[uint64]int64{}
	for doc := range m[terms[0]] {
		var sum int64
		all := true
		for _, t := range terms {
			w, ok := m[t][doc]
			all = all && ok
			sum += w
		}
		if all {
			out[doc] = sum
		}
	}
	return out
}

func (m model) or(terms ...uint64) map[uint64]int64 {
	out := map[uint64]int64{}
	for _, t := range terms {
		for doc, w := range m[t] {
			out[doc] += w
		}
	}
	return out
}

// checkTopK fails unless got is a top-k of want: the right number of
// results, scores in the model's descending order, each document distinct
// and carrying its model score (ties may come back in any order).
func checkTopK(t *testing.T, what string, got []ScoredDoc, want map[uint64]int64, k int) {
	t.Helper()
	scores := make([]int64, 0, len(want))
	for _, s := range want {
		scores = append(scores, s)
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i] > scores[j] })
	if len(scores) > k {
		scores = scores[:k]
	}
	if len(got) != len(scores) {
		t.Fatalf("%s: %d results, want %d: %v", what, len(got), len(scores), got)
	}
	seen := map[uint64]bool{}
	for i, sd := range got {
		if sd.Score != scores[i] {
			t.Fatalf("%s[%d]: score %d, want %d", what, i, sd.Score, scores[i])
		}
		if w, ok := want[sd.Doc]; !ok || w != sd.Score || seen[sd.Doc] {
			t.Fatalf("%s[%d]: doc %d scored %d, model %d (present %v, repeated %v)", what, i, sd.Doc, sd.Score, w, ok, seen[sd.Doc])
		}
		seen[sd.Doc] = true
	}
}

// TestIndexMatchesModel ingests one corpus — as one batch and document by
// document — removes a fifth of it, and checks every query form against
// the brute-force model at quiescence, for shard counts around and above
// the vocabulary spread.
func TestIndexMatchesModel(t *testing.T) {
	c := NewCorpus(CorpusConfig{Vocab: 300, MeanDocLen: 24, Seed: 11})
	var docs []Doc
	for i := 0; i < 200; i++ {
		docs = append(docs, c.Next())
	}
	hot := append(c.HotTerms(12), 301) // 301 is never drawn
	for _, shards := range []int{1, 3, 8} {
		for _, perDoc := range []bool{false, true} {
			t.Run(fmt.Sprintf("S=%d/perDoc=%v", shards, perDoc), func(t *testing.T) {
				ix := newIndex(t, shards, 2, 0)
				m := model{}
				if perDoc {
					for _, d := range docs {
						if err := ix.AddDocument(d); err != nil {
							t.Fatal(err)
						}
					}
				} else if err := ix.AddDocuments(docs); err != nil {
					t.Fatal(err)
				}
				for _, d := range docs {
					m.add(d)
				}
				rng := rand.New(rand.NewSource(int64(shards)))
				check := func(phase string) {
					if got, want := ix.Terms(), int64(len(m)); got != want {
						t.Fatalf("%s: Terms = %d, want %d", phase, got, want)
					}
					for q := 0; q < 50; q++ {
						t1, t2, t3 := hot[rng.Intn(len(hot))], hot[rng.Intn(len(hot))], hot[rng.Intn(len(hot))]
						if got, want := ix.PostingLen(t1), int64(len(m[t1])); got != want {
							t.Fatalf("%s: PostingLen(%d) = %d, want %d", phase, t1, got, want)
						}
						checkTopK(t, fmt.Sprintf("%s: AndQuery(%d,%d)", phase, t1, t2), ix.AndQuery(t1, t2, 10), m.and(t1, t2), 10)
						checkTopK(t, fmt.Sprintf("%s: OrQuery(%d,%d)", phase, t1, t2), ix.OrQuery(t1, t2, 5), m.or(t1, t2), 5)
						checkTopK(t, fmt.Sprintf("%s: AndQueryN(%d,%d,%d)", phase, t1, t2, t3),
							ix.AndQueryN([]uint64{t1, t2, t3}, 10), m.and(t1, t2, t3), 10)
					}
				}
				check("ingested")
				for i := 0; i < len(docs); i += 5 {
					if err := ix.RemoveDocument(docs[i]); err != nil {
						t.Fatal(err)
					}
					m.remove(docs[i])
				}
				check("after removals")
			})
		}
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
	ix := newIndex(t, 4, 4, 0)
	doc := func(id uint64) Doc {
		d := Doc{ID: id}
		for j := uint64(0); j < docLen; j++ {
			d.Terms = append(d.Terms, TermWeight{Term: (id*5 + j) % terms, Weight: int64(id%97 + j + 1)})
		}
		return d
	}
	want := model{}
	var preload []Doc
	for id := uint64(10_000); id < 10_200; id++ {
		preload = append(preload, doc(id))
	}
	ix.AddDocuments(preload)
	for _, d := range preload {
		if d.ID%2 == 1 { // the even ones are removed below
			want.add(d)
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
		want.add(doc(id))
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
}

// TestAddAfterCloseNoLeak: a write after Close reports the map's error and
// allocates nothing — the deltas are built inside the commit's callback,
// which a closed map never runs.
func TestAddAfterCloseNoLeak(t *testing.T) {
	ix := newIndex(t, 2, 2, 0)
	ix.Close()
	d := Doc{ID: 1, Terms: []TermWeight{{10, 1}, {20, 2}}}
	if err := ix.AddDocument(d); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("AddDocument after Close = %v, want ErrClosed", err)
	}
	if err := ix.AddDocuments([]Doc{d, {ID: 2, Terms: []TermWeight{{30, 3}}}}); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("AddDocuments after Close = %v, want ErrClosed", err)
	}
	if err := ix.RemoveDocument(d); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("RemoveDocument after Close = %v, want ErrClosed", err)
	}
	if o, i := ix.LiveNodes(); o != 0 || i != 0 {
		t.Fatalf("leak after writes on a closed index: outer %d inner %d", o, i)
	}
}

func TestNewRejectsBadShards(t *testing.T) {
	for _, s := range []int{0, -1} {
		if _, err := New(s, 1, 0); err == nil {
			t.Fatalf("New(%d, ...) must error", s)
		}
	}
}

func TestTopKAgainstBruteForce(t *testing.T) {
	ix := newIndex(t, 1, 1, 0)
	rng := rand.New(rand.NewSource(33))
	type dw struct {
		d uint64
		w int64
	}
	var all []dw
	var p *Posting
	for i := 0; i < 500; i++ {
		d, w := uint64(i), rng.Int63n(100000)
		all = append(all, dw{d, w})
		np := ix.inner.Insert(p, d, w)
		ix.inner.Release(p)
		p = np
	}
	sort.Slice(all, func(i, j int) bool { return all[i].w > all[j].w })
	for _, k := range []int{1, 10, 100, 500, 1000} {
		got := TopK(p, k)
		want := k
		if want > len(all) {
			want = len(all)
		}
		if len(got) != want {
			t.Fatalf("TopK(%d) returned %d", k, len(got))
		}
		for i, s := range got {
			if s.Score != all[i].w {
				t.Fatalf("TopK(%d)[%d] score %d, want %d", k, i, s.Score, all[i].w)
			}
		}
	}
	if TopK(nil, 5) != nil {
		t.Fatal("TopK(nil) must be empty")
	}
	if TopK(p, 0) != nil {
		t.Fatal("TopK(_, 0) must be empty")
	}
	ix.inner.Release(p)
}

func TestCorpusGeneration(t *testing.T) {
	c := NewCorpus(CorpusConfig{Vocab: 1000, MeanDocLen: 32, Seed: 1})
	seen := map[uint64]int{}
	for i := 0; i < 200; i++ {
		d := c.Next()
		if d.ID != uint64(i) {
			t.Fatalf("doc id %d, want %d", d.ID, i)
		}
		if len(d.Terms) < 16 || len(d.Terms) > 48 {
			t.Fatalf("doc length %d outside [16,48]", len(d.Terms))
		}
		dup := map[uint64]bool{}
		for _, tw := range d.Terms {
			if dup[tw.Term] {
				t.Fatal("duplicate term within document")
			}
			dup[tw.Term] = true
			if tw.Weight <= 0 {
				t.Fatal("non-positive weight")
			}
			seen[tw.Term]++
		}
	}
	// Zipf skew: the hottest term should appear in a large share of docs.
	hot := 0
	for _, c := range seen {
		if c > hot {
			hot = c
		}
	}
	if hot < 50 {
		t.Fatalf("hottest term appears only %d times; corpus not skewed", hot)
	}
	ht := c.HotTerms(5)
	if len(ht) != 5 {
		t.Fatal("HotTerms length")
	}
}

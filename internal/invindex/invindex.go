// Package invindex implements the paper's weighted inverted index
// application (Section 7.2, Table 3): an outer functional tree maps each
// term to a posting list — itself an inner functional tree from document to
// weight, augmented with the maximum weight in the subtree — and both
// levels are persistent, so adding a document is one atomic write
// transaction (built with a parallel union) and "and"-queries intersect two
// posting-list snapshots without any synchronization.
//
// No pid appears anywhere in this package's API: the index leases process
// identities internally, one per transaction (core.Map.With), so ingestion
// and queries may be issued from any goroutine.  ShardedIndex (sharded.go)
// is the same two-level tree on a shard.Map: the outer term tree
// hash-partitioned across S shards for parallel ingestion, with the
// sharded map's atomic commits and consistent views keeping documents
// whole.
//
// The corpus is synthetic (Zipf-distributed vocabulary), substituting for
// the paper's Wikipedia dump; see DESIGN.md for why the substitution
// preserves the experiment's claim.
package invindex

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/ycsb"
)

// Posting is an inner tree node: document → weight, max-weight augmented.
type Posting = ftree.Node[uint64, int64, int64]

// Index is the two-level persistent inverted index wrapped in the paper's
// transactional system.
type Index struct {
	inner *ftree.Ops[uint64, int64, int64]
	outer *ftree.Ops[uint64, *Posting, struct{}]
	m     *core.Map[uint64, *Posting, struct{}]
}

// TermWeight is one term occurrence in a document.
type TermWeight struct {
	Term   uint64
	Weight int64
}

// Doc is a document to ingest.
type Doc struct {
	ID    uint64
	Terms []TermWeight
}

// New creates an empty index admitting up to procs concurrent transactions
// (procs <= 0 defaults to GOMAXPROCS+1, leaving room for one ingesting
// writer next to GOMAXPROCS queriers) with the given parallel grain for
// batch updates.
func New(procs, grain int) (*Index, error) {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0) + 1
	}
	inner := ftree.New[uint64, int64, int64](ftree.IntCmp[uint64], ftree.MaxAug[uint64](), grain)
	outer := newOuter(inner, grain)
	m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: procs}, outer, nil)
	if err != nil {
		return nil, fmt.Errorf("invindex: %w", err)
	}
	return &Index{inner: inner, outer: outer, m: m}, nil
}

// newOuter builds a term → posting tree whose values share the inner
// allocator: retaining an outer node retains its posting list.
func newOuter(inner *ftree.Ops[uint64, int64, int64], grain int) *ftree.Ops[uint64, *Posting, struct{}] {
	outer := ftree.New[uint64, *Posting, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, *Posting](), grain)
	outer.RetainVal = func(p *Posting) *Posting {
		if p == nil {
			return nil
		}
		return inner.Share(p)
	}
	outer.ReleaseVal = func(p *Posting) { inner.Release(p) }
	return outer
}

// read runs a read-only transaction on an internally-leased handle.
func (ix *Index) read(f func(s core.Snapshot[uint64, *Posting, struct{}])) {
	ix.m.With(func(h *core.Handle[uint64, *Posting, struct{}]) { h.Read(f) })
}

// update runs a write transaction on an internally-leased handle.
func (ix *Index) update(f func(tx *core.Txn[uint64, *Posting, struct{}])) {
	ix.m.With(func(h *core.Handle[uint64, *Posting, struct{}]) { h.Update(f) })
}

// combinePostings merges two owned posting trees into one owned tree,
// summing weights for documents present in both.
func combinePostings(inner *ftree.Ops[uint64, int64, int64]) func(a, b *Posting) *Posting {
	return func(a, b *Posting) *Posting {
		u := inner.Union(a, b, sumWeights)
		inner.Release(a)
		inner.Release(b)
		return u
	}
}

// docBatch turns documents into term → single-entry-posting deltas.
func docBatch(inner *ftree.Ops[uint64, int64, int64], docs []Doc) []ftree.Entry[uint64, *Posting] {
	var batch []ftree.Entry[uint64, *Posting]
	for _, d := range docs {
		for _, tw := range d.Terms {
			batch = append(batch, ftree.Entry[uint64, *Posting]{
				Key: tw.Term,
				Val: inner.Insert(nil, d.ID, tw.Weight),
			})
		}
	}
	return batch
}

// AddDocument ingests one document atomically: it builds the document's
// term → posting delta and unions it into the index in a single write
// transaction, so no query ever observes a partial document (the paper's
// atomic-ingestion requirement).
func (ix *Index) AddDocument(d Doc) {
	ix.AddDocuments([]Doc{d})
}

// AddDocuments ingests a batch of documents in one write transaction.
func (ix *Index) AddDocuments(docs []Doc) {
	insertDocBatch(ix.inner, ix.m, docBatch(ix.inner, docs))
}

// insertDocBatch commits term → posting deltas into m.  Write transactions
// retry on conflict, so each attempt must be self-contained: it inserts
// fresh shares of the deltas, letting a conflict-aborted attempt release
// its partial tree without consuming the originals (which are released
// exactly once, after the commit).  This makes concurrent AddDocuments
// callers safe — the pid-free API no longer implies a single writer.
func insertDocBatch(inner *ftree.Ops[uint64, int64, int64], m *core.Map[uint64, *Posting, struct{}], batch []ftree.Entry[uint64, *Posting]) {
	comb := combinePostings(inner)
	m.With(func(h *core.Handle[uint64, *Posting, struct{}]) {
		h.Update(func(tx *core.Txn[uint64, *Posting, struct{}]) {
			attempt := make([]ftree.Entry[uint64, *Posting], len(batch))
			for i, e := range batch {
				attempt[i] = ftree.Entry[uint64, *Posting]{Key: e.Key, Val: inner.Share(e.Val)}
			}
			tx.InsertBatch(attempt, comb)
		})
	})
	for _, e := range batch {
		inner.Release(e.Val)
	}
}

// RemoveDocument deletes a document's postings for the given terms,
// dropping terms whose posting list becomes empty.
func (ix *Index) RemoveDocument(d Doc) {
	ix.update(func(tx *core.Txn[uint64, *Posting, struct{}]) { removeDoc(ix.inner, tx, d) })
}

// postingTxn is the write transaction removeDoc runs in: a core.Txn for
// Index, a shard.Txn for ShardedIndex.
type postingTxn interface {
	Get(term uint64) (*Posting, bool)
	Insert(term uint64, p *Posting)
	Delete(term uint64)
}

// removeDoc deletes d's postings within tx.
func removeDoc(inner *ftree.Ops[uint64, int64, int64], tx postingTxn, d Doc) {
	for _, tw := range d.Terms {
		p, ok := tx.Get(tw.Term)
		if !ok {
			continue
		}
		np := inner.Delete(p, d.ID)
		if inner.Size(np) == 0 {
			inner.Release(np)
			tx.Delete(tw.Term)
		} else {
			tx.Insert(tw.Term, np)
		}
	}
}

// ScoredDoc is one "and"-query result.
type ScoredDoc struct {
	Doc   uint64
	Score int64
}

// AndQuery returns the top-k documents containing both terms, ranked by
// summed weight, evaluated against one consistent snapshot.  Because both
// levels are persistent, the two posting lists are snapshots of the same
// version and the query never blocks or is blocked by writers.
func (ix *Index) AndQuery(term1, term2 uint64, k int) (out []ScoredDoc) {
	ix.read(func(s core.Snapshot[uint64, *Posting, struct{}]) { out = andQuery(ix.inner, s, term1, term2, k) })
	return out
}

// AndQueryN generalizes AndQuery to any number of terms: top-k documents
// containing every term, ranked by summed weight.  Intersections proceed
// smallest-posting-first to keep intermediate results minimal.
func (ix *Index) AndQueryN(terms []uint64, k int) (out []ScoredDoc) {
	ix.read(func(s core.Snapshot[uint64, *Posting, struct{}]) { out = andQueryN(ix.inner, s, terms, k) })
	return out
}

// OrQuery returns the top-k documents containing either term, ranked by
// summed weight (documents with both terms score the sum of both).
func (ix *Index) OrQuery(term1, term2 uint64, k int) (out []ScoredDoc) {
	ix.read(func(s core.Snapshot[uint64, *Posting, struct{}]) { out = orQuery(ix.inner, s, term1, term2, k) })
	return out
}

// PostingLen returns the posting-list length of term.
func (ix *Index) PostingLen(term uint64) (n int64) {
	ix.read(func(s core.Snapshot[uint64, *Posting, struct{}]) { n = postingLen(ix.inner, s, term) })
	return n
}

// Terms returns the vocabulary size.
func (ix *Index) Terms() int64 {
	var n int64
	ix.read(func(s core.Snapshot[uint64, *Posting, struct{}]) { n = s.Len() })
	return n
}

// postingView is one consistent read view the queries below run against: a
// core.Snapshot for Index, a ViewConsistent shard.Snap for ShardedIndex.
// The postings it returns are borrowed from the pinned version.
type postingView interface {
	Get(term uint64) (*Posting, bool)
}

func sumWeights(a, b int64) int64 { return a + b }

func andQuery(inner *ftree.Ops[uint64, int64, int64], v postingView, term1, term2 uint64, k int) []ScoredDoc {
	p1, ok1 := v.Get(term1)
	p2, ok2 := v.Get(term2)
	if !ok1 || !ok2 {
		return nil
	}
	inter := inner.Intersect(p1, p2, sumWeights)
	out := TopK(inter, k)
	inner.Release(inter)
	return out
}

func andQueryN(inner *ftree.Ops[uint64, int64, int64], v postingView, terms []uint64, k int) []ScoredDoc {
	if len(terms) == 0 {
		return nil
	}
	postings := make([]*Posting, 0, len(terms))
	for _, t := range terms {
		p, ok := v.Get(t)
		if !ok {
			return nil
		}
		postings = append(postings, p)
	}
	return intersectTopK(inner, postings, k)
}

// intersectTopK intersects borrowed postings smallest-first and returns the
// top-k of the result; the input postings are not consumed.
func intersectTopK(inner *ftree.Ops[uint64, int64, int64], postings []*Posting, k int) []ScoredDoc {
	sort.Slice(postings, func(i, j int) bool {
		return inner.Size(postings[i]) < inner.Size(postings[j])
	})
	acc := inner.Share(postings[0])
	for _, p := range postings[1:] {
		next := inner.Intersect(acc, p, sumWeights)
		inner.Release(acc)
		acc = next
	}
	out := TopK(acc, k)
	inner.Release(acc)
	return out
}

func orQuery(inner *ftree.Ops[uint64, int64, int64], v postingView, term1, term2 uint64, k int) []ScoredDoc {
	p1, ok1 := v.Get(term1)
	p2, ok2 := v.Get(term2)
	switch {
	case !ok1 && !ok2:
		return nil
	case !ok1:
		return TopK(p2, k)
	case !ok2:
		return TopK(p1, k)
	}
	u := inner.Union(p1, p2, sumWeights)
	out := TopK(u, k)
	inner.Release(u)
	return out
}

func postingLen(inner *ftree.Ops[uint64, int64, int64], v postingView, term uint64) int64 {
	if p, ok := v.Get(term); ok {
		return inner.Size(p)
	}
	return 0
}

// Close shuts the underlying transactional map down.
func (ix *Index) Close() { ix.m.Close() }

// LiveNodes reports live (outer, inner) node counts for leak checks.
func (ix *Index) LiveNodes() (outer, inner int64) {
	return ix.outer.Live(), ix.inner.Live()
}

// TopK extracts the k highest-weight entries of a max-augmented posting
// tree in O(k log n) using the augmentation as a priority bound: a heap
// holds subtrees keyed by their max-weight augmentation and single entries
// keyed by their weight; popping a subtree re-inserts its immediate parts
// (Node.Expand: child subtrees and the root entry, or a leaf's entries).
// This is the augmented top-k search the paper's index design enables.
func TopK(t *Posting, k int) []ScoredDoc {
	if t == nil || k <= 0 {
		return nil
	}
	h := &topkHeap{}
	pushSub := func(n *Posting) { heap.Push(h, topkItem{sub: n, pri: n.Aug()}) }
	pushDoc := func(doc uint64, w int64) { heap.Push(h, topkItem{doc: doc, pri: w}) }
	pushSub(t)
	var out []ScoredDoc
	for h.Len() > 0 && len(out) < k {
		it := heap.Pop(h).(topkItem)
		if it.sub == nil {
			out = append(out, ScoredDoc{Doc: it.doc, Score: it.pri})
			continue
		}
		it.sub.Expand(pushSub, pushDoc)
	}
	return out
}

type topkItem struct {
	sub *Posting // nil for a single-entry item
	doc uint64
	pri int64
}

type topkHeap []topkItem

func (h topkHeap) Len() int           { return len(h) }
func (h topkHeap) Less(i, j int) bool { return h[i].pri > h[j].pri }
func (h topkHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *topkHeap) Push(x any)        { *h = append(*h, x.(topkItem)) }
func (h *topkHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// CorpusConfig shapes the synthetic corpus standing in for the paper's
// Wikipedia dump.
type CorpusConfig struct {
	// Vocab is the vocabulary size.
	Vocab uint64
	// MeanDocLen is the average number of distinct terms per document.
	MeanDocLen int
	// Seed makes generation deterministic.
	Seed uint64
}

// Corpus generates documents with Zipf-distributed term choice (natural
// language's rank-frequency law) and uniform weights.
type Corpus struct {
	cfg   CorpusConfig
	terms *ycsb.ScrambledZipfian
	rng   *ycsb.SplitMix64
	next  uint64
}

// NewCorpus creates a generator.
func NewCorpus(cfg CorpusConfig) *Corpus {
	if cfg.Vocab == 0 {
		cfg.Vocab = 100000
	}
	if cfg.MeanDocLen == 0 {
		cfg.MeanDocLen = 64
	}
	return &Corpus{
		cfg:   cfg,
		terms: ycsb.NewScrambledZipfian(cfg.Vocab),
		rng:   ycsb.NewSplitMix64(cfg.Seed ^ 0xabcdef),
	}
}

// Next produces the next document: distinct Zipf-drawn terms with weights.
func (c *Corpus) Next() Doc {
	n := c.cfg.MeanDocLen/2 + int(c.rng.Intn(uint64(c.cfg.MeanDocLen)))
	seen := make(map[uint64]struct{}, n)
	d := Doc{ID: c.next}
	c.next++
	for len(d.Terms) < n {
		t := c.terms.Next(c.rng)
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		d.Terms = append(d.Terms, TermWeight{Term: t, Weight: int64(1 + c.rng.Intn(1000))})
	}
	return d
}

// HotTerms returns frequent terms for query generation: scrambled ranks
// 0..n-1, which are the zipfian hot set.
func (c *Corpus) HotTerms(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = ycsb.FNV64(uint64(i)) % c.cfg.Vocab
	}
	return out
}

// Package invindex implements the paper's weighted inverted index
// application (Section 7.2, Table 3): an outer functional tree maps each
// term to a posting list — itself an inner functional tree from document to
// weight, augmented with the maximum weight in the subtree — and both
// levels are persistent, so adding a document is one atomic write
// transaction (built with a parallel union) and "and"-queries intersect two
// posting-list snapshots without any synchronization.
//
// The term tree is a shard.Map hash-partitioned across S shards.  At S=1 it
// is the paper's single structure: one writer, delay-free readers.  More
// shards let S ingesting writers commit in parallel.  All shards share one
// inner (posting) allocator — posting trees are reference-counted, so a
// posting pinned by one shard's snapshot stays live while another shard
// commits.  No pid appears anywhere in this package's API: the map leases
// process identities internally, so ingestion and queries may be issued
// from any goroutine.
//
// # Semantics
//
// The sharded map's global mode does the work.  AddDocuments is one
// UpdateAtomic whose term → posting deltas are one Txn.InsertBatch: one
// multi-insert per shard, under one global commit sequence number when the
// terms span shards (the shards in parallel when two of them get a large
// share), so a batch of documents becomes visible all at once.
// RemoveDocument is one UpdateAtomicKeys over the document's terms.  Every
// query reads postings straight from pinned versions: one shard's version
// when all its terms live there (atomic on its own), else a ViewConsistent
// cut, so a query never observes a document under one of its terms but not
// another.  The only per-shard weakening is statistical: Terms sums
// per-shard counts pinned at slightly different instants.
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

	"mvgc/internal/ftree"
	"mvgc/internal/shard"
	"mvgc/internal/ycsb"
)

// Posting is an inner tree node: document → weight, max-weight augmented.
type Posting = ftree.Node[uint64, int64, int64]

type (
	txn  = shard.Txn[uint64, *Posting, struct{}]
	snap = shard.Snap[uint64, *Posting, struct{}]
)

// Index is the two-level persistent inverted index wrapped in the paper's
// transactional system, its term tree partitioned across S shards.
type Index struct {
	inner *ftree.Ops[uint64, int64, int64]
	m     *shard.Map[uint64, *Posting, struct{}]
	comb  func(a, b *Posting) *Posting
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

// New creates an empty index over S shards (S=1 is the paper's single
// index), each admitting up to procs concurrent transactions (procs <= 0
// defaults to GOMAXPROCS+1, leaving room for one ingesting writer next to
// GOMAXPROCS queriers), with the given parallel grain for batch updates.
// Terms are routed by ycsb.Mix64, which spreads sequential term ids
// uniformly.
func New(shards, procs, grain int) (*Index, error) {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0) + 1
	}
	inner := ftree.New[uint64, int64, int64](ftree.IntCmp[uint64], ftree.MaxAug[uint64](), grain)
	m, err := shard.New(shard.Config[uint64]{Shards: shards, Procs: procs, Algorithm: "pswf", Hash: ycsb.Mix64},
		func() *ftree.Ops[uint64, *Posting, struct{}] { return newOuter(inner, grain) }, nil, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("invindex: %w", err)
	}
	// comb merges two owned posting trees into one owned tree, summing
	// weights for documents present in both.
	comb := func(a, b *Posting) *Posting {
		u := inner.Union(a, b, sumWeights)
		inner.Release(a)
		inner.Release(b)
		return u
	}
	return &Index{inner: inner, m: m, comb: comb}, nil
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

// AddDocument ingests one document atomically, even when its terms span
// shards: no query ever observes the document under some of its terms and
// not others (the paper's atomic-ingestion requirement).
func (ix *Index) AddDocument(d Doc) error {
	return ix.AddDocuments([]Doc{d})
}

// AddDocuments ingests a batch of documents in one atomic write
// transaction.  The term → single-entry-posting deltas are built inside the
// callback, which runs at most once and not at all after Close, and the
// commit consumes them.
func (ix *Index) AddDocuments(docs []Doc) error {
	return ix.m.UpdateAtomic(func(t *txn) {
		var batch []ftree.Entry[uint64, *Posting]
		for _, d := range docs {
			for _, tw := range d.Terms {
				batch = append(batch, ftree.Entry[uint64, *Posting]{Key: tw.Term, Val: ix.inner.Insert(nil, d.ID, tw.Weight)})
			}
		}
		t.InsertBatch(batch, ix.comb)
	})
}

// RemoveDocument deletes a document's postings for the given terms,
// dropping terms whose posting list becomes empty, atomically across shards
// like AddDocument.  The footprint is every term the removal reads, so the
// callback runs once.
func (ix *Index) RemoveDocument(d Doc) error {
	terms := make([]uint64, len(d.Terms))
	for i, tw := range d.Terms {
		terms[i] = tw.Term
	}
	return ix.m.UpdateAtomicKeys(terms, func(t *txn) { ix.removeDoc(t, d) })
}

// removeDoc deletes d's postings within t.
func (ix *Index) removeDoc(t *txn, d Doc) {
	for _, tw := range d.Terms {
		p, ok := t.Get(tw.Term)
		if !ok {
			continue
		}
		np := ix.inner.Delete(p, d.ID)
		if ix.inner.Size(np) == 0 {
			ix.inner.Release(np)
			t.Delete(tw.Term)
		} else {
			t.Insert(tw.Term, np)
		}
	}
}

// view runs f against a view no ingest tears for terms.  When they all live
// on one shard, that shard's pinned version is atomic on its own and a plain
// View serves; otherwise ViewConsistent, whose double-collect retries and
// then fences while an ingest is installing.  The postings f reads are
// borrowed from the pinned versions.
func (ix *Index) view(terms []uint64, f func(s snap)) {
	for _, t := range terms {
		if ix.m.ShardFor(t) != ix.m.ShardFor(terms[0]) {
			ix.m.ViewConsistent(f)
			return
		}
	}
	ix.m.View(f)
}

// ScoredDoc is one query result.
type ScoredDoc struct {
	Doc   uint64
	Score int64
}

// AndQuery returns the top-k documents containing both terms, ranked by
// summed weight, evaluated against one consistent view.  Because both
// levels are persistent, the two posting lists are snapshots of the same
// version and the query never blocks or is blocked by writers.
func (ix *Index) AndQuery(term1, term2 uint64, k int) (out []ScoredDoc) {
	ix.view([]uint64{term1, term2}, func(s snap) { out = ix.andQuery(s, term1, term2, k) })
	return out
}

// AndQueryN generalizes AndQuery to any number of terms: top-k documents
// containing every term, ranked by summed weight.  Intersections proceed
// smallest-posting-first to keep intermediate results minimal.
func (ix *Index) AndQueryN(terms []uint64, k int) (out []ScoredDoc) {
	ix.view(terms, func(s snap) { out = ix.andQueryN(s, terms, k) })
	return out
}

// OrQuery returns the top-k documents containing either term, ranked by
// summed weight; a document carrying both terms always scores both or
// neither (never a torn single weight).
func (ix *Index) OrQuery(term1, term2 uint64, k int) (out []ScoredDoc) {
	ix.view([]uint64{term1, term2}, func(s snap) { out = ix.orQuery(s, term1, term2, k) })
	return out
}

// PostingLen returns the posting-list length of term.
func (ix *Index) PostingLen(term uint64) (n int64) {
	ix.view([]uint64{term}, func(s snap) {
		if p, ok := s.Get(term); ok {
			n = ix.inner.Size(p)
		}
	})
	return n
}

// Terms returns the vocabulary size, summed over per-shard snapshots
// (approximate under concurrent ingestion, like shard.Map.Len).
func (ix *Index) Terms() int64 { return ix.m.Len() }

func sumWeights(a, b int64) int64 { return a + b }

func (ix *Index) andQuery(s snap, term1, term2 uint64, k int) []ScoredDoc {
	p1, ok1 := s.Get(term1)
	p2, ok2 := s.Get(term2)
	if !ok1 || !ok2 {
		return nil
	}
	inter := ix.inner.Intersect(p1, p2, sumWeights)
	out := TopK(inter, k)
	ix.inner.Release(inter)
	return out
}

func (ix *Index) andQueryN(s snap, terms []uint64, k int) []ScoredDoc {
	if len(terms) == 0 {
		return nil
	}
	postings := make([]*Posting, 0, len(terms))
	for _, t := range terms {
		p, ok := s.Get(t)
		if !ok {
			return nil
		}
		postings = append(postings, p)
	}
	inner := ix.inner
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

func (ix *Index) orQuery(s snap, term1, term2 uint64, k int) []ScoredDoc {
	p1, ok1 := s.Get(term1)
	p2, ok2 := s.Get(term2)
	switch {
	case !ok1 && !ok2:
		return nil
	case !ok1:
		return TopK(p2, k)
	case !ok2:
		return TopK(p1, k)
	}
	u := ix.inner.Union(p1, p2, sumWeights)
	out := TopK(u, k)
	ix.inner.Release(u)
	return out
}

// Close shuts every shard's transactional map down.
func (ix *Index) Close() { ix.m.Close() }

// LiveNodes reports live (outer, inner) node counts for leak checks; the
// outer count sums all shards.
func (ix *Index) LiveNodes() (outer, inner int64) {
	return ix.m.Live(), ix.inner.Live()
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

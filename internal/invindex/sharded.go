package invindex

// ShardedIndex is the inverted index on a shard.Map: the outer term tree is
// hash-partitioned across S shards, each with its own Version Maintenance
// object and pid space, so S ingesting writers commit in parallel instead of
// one.  All shards share one inner (posting) allocator — posting trees are
// reference-counted, so a posting pinned by one shard's snapshot stays live
// while another shard commits.
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

import (
	"fmt"
	"runtime"

	"mvgc/internal/ftree"
	"mvgc/internal/shard"
	"mvgc/internal/ycsb"
)

type shardSnap = shard.Snap[uint64, *Posting, struct{}]

// ShardedIndex is the S-way partitioned inverted index.  Like Index, no
// pid appears anywhere in its API.
type ShardedIndex struct {
	inner *ftree.Ops[uint64, int64, int64]
	m     *shard.Map[uint64, *Posting, struct{}]
	comb  func(a, b *Posting) *Posting
}

// NewSharded creates an empty index over S shards, each admitting up to
// procs concurrent transactions (procs <= 0 defaults to GOMAXPROCS+1).
// Terms are routed by ycsb.Mix64, which spreads sequential term ids
// uniformly.
func NewSharded(shards, procs, grain int) (*ShardedIndex, error) {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0) + 1
	}
	inner := ftree.New[uint64, int64, int64](ftree.IntCmp[uint64], ftree.MaxAug[uint64](), grain)
	m, err := shard.New(shard.Config[uint64]{Shards: shards, Procs: procs, Algorithm: "pswf", Hash: ycsb.Mix64},
		func() *ftree.Ops[uint64, *Posting, struct{}] { return newOuter(inner, grain) }, nil)
	if err != nil {
		return nil, fmt.Errorf("invindex: %w", err)
	}
	return &ShardedIndex{inner: inner, m: m, comb: combinePostings(inner)}, nil
}

// NumShards returns S.
func (ix *ShardedIndex) NumShards() int { return ix.m.NumShards() }

// AddDocument ingests one document atomically, even when its terms span
// shards: no query ever observes the document under some of its terms and
// not others.
func (ix *ShardedIndex) AddDocument(d Doc) {
	ix.AddDocuments([]Doc{d})
}

// AddDocuments ingests a batch of documents in one atomic cross-shard
// transaction.  The deltas are owned postings the commit consumes: under
// the shards' writer slots it runs exactly once.
func (ix *ShardedIndex) AddDocuments(docs []Doc) {
	batch := docBatch(ix.inner, docs)
	ix.m.UpdateAtomic(func(t *shard.Txn[uint64, *Posting, struct{}]) { t.InsertBatch(batch, ix.comb) })
}

// RemoveDocument deletes a document's postings, atomically across shards
// like AddDocument.  The footprint is every term the removal reads, so the
// callback runs once.
func (ix *ShardedIndex) RemoveDocument(d Doc) {
	terms := make([]uint64, len(d.Terms))
	for i, tw := range d.Terms {
		terms[i] = tw.Term
	}
	ix.m.UpdateAtomicKeys(terms, func(t *shard.Txn[uint64, *Posting, struct{}]) { removeDoc(ix.inner, t, d) })
}

// view runs f against a view no ingest tears for terms.  When they all live
// on one shard, that shard's pinned version is atomic on its own and a plain
// View serves; otherwise ViewConsistent, whose double-collect retries and
// then fences while an ingest is installing.
func (ix *ShardedIndex) view(terms []uint64, f func(s shardSnap)) {
	for _, t := range terms {
		if ix.m.ShardFor(t) != ix.m.ShardFor(terms[0]) {
			ix.m.ViewConsistent(f)
			return
		}
	}
	ix.m.View(f)
}

// AndQuery returns the top-k documents containing both terms, ranked by
// summed weight.
func (ix *ShardedIndex) AndQuery(term1, term2 uint64, k int) (out []ScoredDoc) {
	ix.view([]uint64{term1, term2}, func(s shardSnap) { out = andQuery(ix.inner, s, term1, term2, k) })
	return out
}

// AndQueryN generalizes AndQuery to any number of terms: top-k documents
// containing every term, intersected smallest-posting-first.
func (ix *ShardedIndex) AndQueryN(terms []uint64, k int) (out []ScoredDoc) {
	ix.view(terms, func(s shardSnap) { out = andQueryN(ix.inner, s, terms, k) })
	return out
}

// OrQuery returns the top-k documents containing either term, ranked by
// summed weight; a document carrying both terms always scores both or
// neither (never a torn single weight).
func (ix *ShardedIndex) OrQuery(term1, term2 uint64, k int) (out []ScoredDoc) {
	ix.view([]uint64{term1, term2}, func(s shardSnap) { out = orQuery(ix.inner, s, term1, term2, k) })
	return out
}

// PostingLen returns the posting-list length of term.
func (ix *ShardedIndex) PostingLen(term uint64) (n int64) {
	ix.view([]uint64{term}, func(s shardSnap) { n = postingLen(ix.inner, s, term) })
	return n
}

// Terms returns the vocabulary size, summed over per-shard snapshots
// (approximate under concurrent ingestion, like shard.Map.Len).
func (ix *ShardedIndex) Terms() int64 { return ix.m.Len() }

// Close shuts every shard's transactional map down.
func (ix *ShardedIndex) Close() { ix.m.Close() }

// LiveNodes reports live (outer, inner) node counts for leak checks; the
// outer count sums all shards.
func (ix *ShardedIndex) LiveNodes() (outer, inner int64) {
	return ix.m.Live(), ix.inner.Live()
}

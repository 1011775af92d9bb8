package invindex

// ShardedIndex hash-partitions the outer term tree across S independent
// core.Map instances, the way internal/shard does for the KV map: each
// shard has its own Version Maintenance object and pid space, so S
// ingesting writers commit in parallel instead of one.  All shards share
// one inner (posting) allocator — posting trees are reference-counted, so
// a posting pinned by one shard's snapshot stays live while another shard
// commits.
//
// # Semantics
//
// Terms that hash to the same shard keep the paper's full guarantees — an
// AndQuery whose two terms share a shard runs against one consistent
// snapshot.  Ingestion is atomic per document (and per AddDocuments batch):
// when a document's terms span shards, the affected shards' roots are
// installed under one global commit sequence number behind per-shard
// install seqlocks, the same two-phase protocol internal/shard uses for
// UpdateAtomic.  Cross-shard queries double-collect the involved shards'
// install seqlocks around pinning their posting snapshots (bounded retry,
// then a brief writer-slot fence), so a query never observes a document
// under one of its terms but not another.  The only remaining per-shard
// weakening is statistical: Terms sums per-shard counts pinned at slightly
// different instants.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/ycsb"
)

// ShardedIndex is the S-way partitioned inverted index.  Like Index, no
// pid appears anywhere in its API.
type ShardedIndex struct {
	inner  *ftree.Ops[uint64, int64, int64]
	outers []*ftree.Ops[uint64, *Posting, struct{}]
	maps   []*core.Map[uint64, *Posting, struct{}]
	gsn    atomic.Uint64 // shared commit-stamp source across shards
}

// NewSharded creates an empty index over S shards, each admitting up to
// procs concurrent transactions (procs <= 0 defaults to GOMAXPROCS+1).
func NewSharded(shards, procs, grain int) (*ShardedIndex, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("invindex: shards must be positive, got %d", shards)
	}
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0) + 1
	}
	inner := ftree.New[uint64, int64, int64](ftree.IntCmp[uint64], ftree.MaxAug[uint64](), grain)
	ix := &ShardedIndex{inner: inner}
	for i := 0; i < shards; i++ {
		outer := newOuter(inner, grain)
		m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: procs, Stamp: &ix.gsn}, outer, nil)
		if err != nil {
			for _, prev := range ix.maps {
				prev.Close()
			}
			return nil, fmt.Errorf("invindex: shard %d: %w", i, err)
		}
		ix.outers = append(ix.outers, outer)
		ix.maps = append(ix.maps, m)
	}
	return ix, nil
}

// NumShards returns S.
func (ix *ShardedIndex) NumShards() int { return len(ix.maps) }

// shardFor routes a term to its shard; Mix64 spreads sequential term ids
// uniformly.
func (ix *ShardedIndex) shardFor(term uint64) int {
	return int(ycsb.Mix64(term) % uint64(len(ix.maps)))
}

// read runs a read-only transaction on a handle leased from shard i.
func (ix *ShardedIndex) read(i int, f func(s core.Snapshot[uint64, *Posting, struct{}])) {
	ix.maps[i].With(func(h *core.Handle[uint64, *Posting, struct{}]) { h.Read(f) })
}

// update runs a write transaction on a handle leased from shard i.
func (ix *ShardedIndex) update(i int, f func(tx *core.Txn[uint64, *Posting, struct{}])) {
	ix.maps[i].With(func(h *core.Handle[uint64, *Posting, struct{}]) { h.Update(f) })
}

// AddDocument ingests one document atomically, even when its terms span
// shards: no query ever observes the document under some of its terms and
// not others (the unsharded Index's atomic-ingestion guarantee, recovered
// via the global-stamp install protocol).
func (ix *ShardedIndex) AddDocument(d Doc) {
	ix.AddDocuments([]Doc{d})
}

// touchedShards returns the ascending indices of shards with a non-empty
// part.
func touchedShards[T any](parts [][]T) []int {
	var out []int
	for i, p := range parts {
		if len(p) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// parallelIngestFloor is the per-shard batch size below which an atomic
// cross-shard ingest commits its shards sequentially: a single document's
// handful of entries is cheaper to commit inline than to spawn goroutines
// for, and a shorter install window means fewer stablePins retries.  Large
// AddDocuments batches keep the S-way parallel commit that is the point of
// sharding.
const parallelIngestFloor = 64

// installAtomic runs commit(i) for every touched shard under the two-phase
// global-stamp protocol (core.InstallAtomic): writer slots in ascending
// shard order, install seqlocks odd, all commits unstamped, then one
// shared GSN published everywhere before the seqlocks return to even.
// Consistent readers (stablePins) can therefore never observe a subset of
// the commits.  parallel selects S-way commits (independent shards) versus
// a cheaper inline loop.
func (ix *ShardedIndex) installAtomic(touched []int, parallel bool, commit func(i int)) {
	core.LockWriterSlots(ix.maps, touched)
	defer core.UnlockWriterSlots(ix.maps, touched)
	core.InstallAtomic(ix.maps, touched, func() {
		if !parallel {
			for _, i := range touched {
				commit(i)
			}
			return
		}
		var wg sync.WaitGroup
		for _, i := range touched {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				commit(i)
			}(i)
		}
		wg.Wait()
	})
}

// AddDocuments ingests a batch of documents in one atomic cross-shard
// transaction: per-shard parts commit in parallel, but all become visible
// to consistent queries together, under one global commit sequence number.
func (ix *ShardedIndex) AddDocuments(docs []Doc) {
	parts := make([][]ftree.Entry[uint64, *Posting], len(ix.maps))
	for _, e := range docBatch(ix.inner, docs) {
		i := ix.shardFor(e.Key)
		parts[i] = append(parts[i], e)
	}
	touched := touchedShards(parts)
	if len(touched) == 1 {
		// One shard's commit is atomic on its own and stamps itself.
		insertDocBatch(ix.inner, ix.maps[touched[0]], parts[touched[0]], true)
		return
	}
	parallel := false
	for _, i := range touched {
		if len(parts[i]) >= parallelIngestFloor {
			parallel = true
			break
		}
	}
	ix.installAtomic(touched, parallel, func(i int) {
		insertDocBatch(ix.inner, ix.maps[i], parts[i], false)
	})
}

// RemoveDocument deletes a document's postings for the given terms,
// atomically across shards like AddDocument.
func (ix *ShardedIndex) RemoveDocument(d Doc) {
	parts := make([][]TermWeight, len(ix.maps))
	for _, tw := range d.Terms {
		i := ix.shardFor(tw.Term)
		parts[i] = append(parts[i], tw)
	}
	touched := touchedShards(parts)
	if len(touched) == 1 {
		ix.update(touched[0], func(tx *core.Txn[uint64, *Posting, struct{}]) {
			removeDocTerms(ix.inner, tx, d, parts[touched[0]])
		})
		return
	}
	// A single document's removal is small; commit inline.
	ix.installAtomic(touched, false, func(i int) {
		ix.maps[i].With(func(h *core.Handle[uint64, *Posting, struct{}]) {
			h.UpdateUnstamped(func(tx *core.Txn[uint64, *Posting, struct{}]) {
				removeDocTerms(ix.inner, tx, d, parts[i])
			})
		})
	})
}

// stablePins runs pin — which reads the involved shards and retains shared
// postings — under a double-collect of those shards' install seqlocks: if
// an atomic ingest overlapped the pins, undo releases whatever pin retained
// and the pair runs again, so queries never observe a torn document.
// Bounded retries, then a brief fence on the involved shards' writer slots
// (which atomic ingests hold for their whole install) makes the last
// attempt definitive.  involved must be ascending (slot lock order).  Only
// seqlocks are collected, not stamps: plain single-shard ingests are atomic
// on their own, so a moving stamp alone cannot tear a document.
func (ix *ShardedIndex) stablePins(involved []int, pin func(), undo func()) {
	const maxTries = 8
	seqs := make([]uint64, len(involved))
	for try := 0; try < maxTries; try++ {
		ok := true
		for j, s := range involved {
			q := ix.maps[s].InstallSeq()
			if q&1 != 0 {
				ok = false
				break
			}
			seqs[j] = q
		}
		if !ok {
			runtime.Gosched()
			continue
		}
		pin()
		stable := true
		for j, s := range involved {
			if ix.maps[s].InstallSeq() != seqs[j] {
				stable = false
				break
			}
		}
		if stable {
			return
		}
		undo()
		runtime.Gosched()
	}
	for _, s := range involved {
		ix.maps[s].LockWriterSlot()
	}
	pin()
	for j := len(involved) - 1; j >= 0; j-- {
		ix.maps[involved[j]].UnlockWriterSlot()
	}
}

// sharePostings pins each term's posting list under a stable-pin pass over
// the involved shards (no torn documents; see stablePins), reading every
// involved shard exactly once and returning owned (shared) postings the
// caller must Release.  ok is false — and nothing is retained — when any
// term is absent.
func (ix *ShardedIndex) sharePostings(terms []uint64) (postings []*Posting, ok bool) {
	postings = make([]*Posting, len(terms))
	byShard := make(map[int][]int, len(ix.maps))
	for i, t := range terms {
		s := ix.shardFor(t)
		byShard[s] = append(byShard[s], i)
	}
	involved := make([]int, 0, len(byShard))
	for s := range byShard {
		involved = append(involved, s)
	}
	sort.Ints(involved)
	undo := func() {
		for i, p := range postings {
			if p != nil {
				ix.inner.Release(p)
				postings[i] = nil
			}
		}
	}
	ix.stablePins(involved, func() {
		ok = true
		for _, s := range involved {
			if !ok {
				break
			}
			idxs := byShard[s]
			ix.read(s, func(sn core.Snapshot[uint64, *Posting, struct{}]) {
				for _, i := range idxs {
					p, found := sn.Get(terms[i])
					if !found {
						ok = false
						return
					}
					postings[i] = ix.inner.Share(p)
				}
			})
		}
	}, undo)
	if !ok {
		undo()
		return nil, false
	}
	return postings, true
}

// sharePair pins two terms living on different shards into *p1/*p2 (nil
// for absent terms) under one stable-pin pass, so the pair reflects a cut
// no atomic ingest tears.
func (ix *ShardedIndex) sharePair(term1, term2 uint64, p1, p2 **Posting) {
	s1, s2 := ix.shardFor(term1), ix.shardFor(term2)
	involved := []int{s1, s2}
	if s2 < s1 {
		involved[0], involved[1] = s2, s1
	}
	ix.stablePins(involved, func() {
		ix.read(s1, func(sn core.Snapshot[uint64, *Posting, struct{}]) {
			if p, ok := sn.Get(term1); ok {
				*p1 = ix.inner.Share(p)
			}
		})
		ix.read(s2, func(sn core.Snapshot[uint64, *Posting, struct{}]) {
			if p, ok := sn.Get(term2); ok {
				*p2 = ix.inner.Share(p)
			}
		})
	}, func() {
		if *p1 != nil {
			ix.inner.Release(*p1)
			*p1 = nil
		}
		if *p2 != nil {
			ix.inner.Release(*p2)
			*p2 = nil
		}
	})
}

// AndQuery returns the top-k documents containing both terms, ranked by
// summed weight.  When the terms share a shard the query runs against one
// consistent snapshot; otherwise it intersects two stably-pinned per-shard
// snapshots (see stablePins).
func (ix *ShardedIndex) AndQuery(term1, term2 uint64, k int) []ScoredDoc {
	sum := func(a, b int64) int64 { return a + b }
	if s1 := ix.shardFor(term1); s1 == ix.shardFor(term2) {
		var out []ScoredDoc
		ix.read(s1, func(sn core.Snapshot[uint64, *Posting, struct{}]) {
			p1, ok1 := sn.Get(term1)
			p2, ok2 := sn.Get(term2)
			if !ok1 || !ok2 {
				return
			}
			inter := ix.inner.Intersect(p1, p2, sum)
			out = TopK(inter, k)
			ix.inner.Release(inter)
		})
		return out
	}
	// Cross-shard: two direct reads (cheaper than sharePostings' grouping,
	// which earns its keep only for N-term queries), under a stable-pin
	// pass so a concurrent atomic ingest cannot show the document under
	// one term and hide it under the other.
	var p1, p2 *Posting
	ix.sharePair(term1, term2, &p1, &p2)
	if p1 == nil || p2 == nil {
		if p1 != nil {
			ix.inner.Release(p1)
		}
		if p2 != nil {
			ix.inner.Release(p2)
		}
		return nil
	}
	inter := ix.inner.Intersect(p1, p2, sum)
	out := TopK(inter, k)
	ix.inner.Release(inter)
	ix.inner.Release(p1)
	ix.inner.Release(p2)
	return out
}

// AndQueryN generalizes AndQuery to any number of terms: top-k documents
// containing every term, intersected smallest-posting-first.
func (ix *ShardedIndex) AndQueryN(terms []uint64, k int) []ScoredDoc {
	if len(terms) == 0 {
		return nil
	}
	ps, ok := ix.sharePostings(terms)
	if !ok {
		return nil
	}
	out := intersectTopK(ix.inner, ps, k)
	for _, p := range ps {
		ix.inner.Release(p)
	}
	return out
}

// OrQuery returns the top-k documents containing either term, ranked by
// summed weight (documents with both terms score the sum of both).  Like
// AndQuery, same-shard term pairs are answered from one consistent
// snapshot; cross-shard pairs are stably pinned, so a document carrying
// both terms always scores both or neither (never a torn single weight).
func (ix *ShardedIndex) OrQuery(term1, term2 uint64, k int) []ScoredDoc {
	var p1, p2 *Posting
	if s1 := ix.shardFor(term1); s1 == ix.shardFor(term2) {
		ix.read(s1, func(sn core.Snapshot[uint64, *Posting, struct{}]) {
			if p, ok := sn.Get(term1); ok {
				p1 = ix.inner.Share(p)
			}
			if p, ok := sn.Get(term2); ok {
				p2 = ix.inner.Share(p)
			}
		})
	} else {
		ix.sharePair(term1, term2, &p1, &p2)
	}
	switch {
	case p1 == nil && p2 == nil:
		return nil
	case p1 == nil:
		out := TopK(p2, k)
		ix.inner.Release(p2)
		return out
	case p2 == nil:
		out := TopK(p1, k)
		ix.inner.Release(p1)
		return out
	}
	u := ix.inner.Union(p1, p2, func(a, b int64) int64 { return a + b })
	out := TopK(u, k)
	ix.inner.Release(u)
	ix.inner.Release(p1)
	ix.inner.Release(p2)
	return out
}

// PostingLen returns the posting-list length of term.
func (ix *ShardedIndex) PostingLen(term uint64) int64 {
	var n int64
	ix.read(ix.shardFor(term), func(sn core.Snapshot[uint64, *Posting, struct{}]) {
		if p, ok := sn.Get(term); ok {
			n = ix.inner.Size(p)
		}
	})
	return n
}

// Terms returns the vocabulary size, summed over per-shard snapshots
// (approximate under concurrent ingestion, like shard.Map.Len).
func (ix *ShardedIndex) Terms() int64 {
	var n int64
	for i := range ix.maps {
		ix.read(i, func(sn core.Snapshot[uint64, *Posting, struct{}]) { n += sn.Len() })
	}
	return n
}

// Close shuts every shard's transactional map down.
func (ix *ShardedIndex) Close() {
	for _, m := range ix.maps {
		m.Close()
	}
}

// LiveNodes reports live (outer, inner) node counts for leak checks; the
// outer count sums all shards.
func (ix *ShardedIndex) LiveNodes() (outer, inner int64) {
	for _, o := range ix.outers {
		outer += o.Live()
	}
	return outer, ix.inner.Live()
}

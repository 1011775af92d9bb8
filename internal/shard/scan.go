package shard

import (
	"mvgc/internal/ftree"
)

// Cross-shard ordered iteration: a loser-tree S-way merge over pooled
// per-shard iterators.
//
// Hash partitioning scatters adjacent keys across shards, so every ordered
// scan is an S-way merge of the per-shard in-order streams.  The merge
// here is a tournament (loser) tree: internal node j holds the losing
// iterator of the match played there, tree[0] holds the overall winner,
// and advancing the winner replays only its own leaf-to-root path —
// O(log S) comparisons per element instead of the linear best-pick's O(S).
// Ties are impossible across iterators (a key hashes to exactly one
// shard), but the comparison still breaks them by index so the merge is
// deterministic on any input.
//
// The state — S reusable iterators (ftree.Iter, whose Reset/SeekGE keep
// their descent stacks) plus the tournament array — is pooled per Map:
// each scan leases a scanState, re-seeks the parked iterators against the
// Snap's pinned roots, and returns it when done.  After the pool and the
// iterator stacks have warmed up, a fixed-length scan performs no heap
// allocation at all, which BenchmarkScanWarm measures and
// TestScanWarmZeroAlloc holds as a checked number.  A scanState is single-owner while leased,
// exactly like the arenas; the pool hands it to one scan at a time.
type scanState[K, V, A any] struct {
	cmp  func(a, b K) int
	its  []ftree.Iter[K, V, A]
	tree []int // tree[0] = winner; tree[1..S-1] = per-match losers
}

// getScan leases a scan slot from the map's pool (allocating one the
// first few times, until the pool warms up).
func (m *Map[K, V, A]) getScan() *scanState[K, V, A] {
	if st, ok := m.scans.Get().(*scanState[K, V, A]); ok {
		return st
	}
	return &scanState[K, V, A]{}
}

// putScan parks a scan slot for reuse; the iterators keep their grown
// descent stacks, which is what makes the next scan allocation-free.
func (m *Map[K, V, A]) putScan(st *scanState[K, V, A]) { m.scans.Put(st) }

// prepare sizes the state for s's shard count and binds each iterator to
// its shard's Ops family.  Growth happens at most once per pool entry per
// shard count; warm calls only reslice.
func (st *scanState[K, V, A]) prepare(s Snap[K, V, A]) {
	k := len(s.snaps)
	st.cmp = s.m.shards[0].Ops().Cmp
	if cap(st.its) < k {
		st.its = make([]ftree.Iter[K, V, A], k)
		st.tree = make([]int, k)
	}
	st.its = st.its[:k]
	st.tree = st.tree[:k]
	for i := range st.its {
		st.its[i].Bind(s.m.shards[i].Ops())
	}
}

// seekMin positions every iterator at its shard's smallest entry and
// builds the tournament.
func (st *scanState[K, V, A]) seekMin(s Snap[K, V, A]) {
	st.prepare(s)
	for i := range st.its {
		st.its[i].Reset(s.snaps[i].Root())
	}
	st.tree[0] = st.buildNode(1)
}

// seekGE positions every iterator at its shard's smallest entry with
// key ≥ lo and builds the tournament.
func (st *scanState[K, V, A]) seekGE(s Snap[K, V, A], lo K) {
	st.prepare(s)
	for i := range st.its {
		st.its[i].SeekGE(s.snaps[i].Root(), lo)
	}
	st.tree[0] = st.buildNode(1)
}

// buildNode plays the initial tournament below internal node j, storing
// each match's loser at its node and returning the winner.  Iterator i's
// (virtual) leaf is node S+i; node j's children are 2j and 2j+1.  A plain
// method rather than a closure so building allocates nothing.
func (st *scanState[K, V, A]) buildNode(j int) int {
	if j >= len(st.its) {
		return j - len(st.its)
	}
	a := st.buildNode(2 * j)
	b := st.buildNode(2*j + 1)
	if st.beats(b, a) {
		a, b = b, a
	}
	st.tree[j] = b
	return a
}

// beats reports whether iterator a's pending entry orders before
// iterator b's.  An exhausted iterator loses to everything (and to
// another exhausted iterator by index), so the merge needs no sentinel
// keys.
func (st *scanState[K, V, A]) beats(a, b int) bool {
	ia, ib := &st.its[a], &st.its[b]
	if !ia.Valid() {
		return !ib.Valid() && a < b
	}
	if !ib.Valid() {
		return true
	}
	c := st.cmp(ia.Key(), ib.Key())
	return c < 0 || (c == 0 && a < b)
}

// winner returns the iterator index holding the globally smallest pending
// entry, or -1 when every stream is exhausted.
func (st *scanState[K, V, A]) winner() int {
	w := st.tree[0]
	if !st.its[w].Valid() {
		return -1
	}
	return w
}

// step advances the current winner's iterator and replays its leaf-to-root
// path: each internal node on the path re-plays its match against the
// stored loser, so the tournament is restored in O(log S) comparisons.
func (st *scanState[K, V, A]) step() {
	w := st.tree[0]
	st.its[w].Next()
	for j := (len(st.its) + w) / 2; j >= 1; j /= 2 {
		if st.beats(st.tree[j], w) {
			st.tree[j], w = w, st.tree[j]
		}
	}
	st.tree[0] = w
}

// ForEach visits every entry across all shards in global key order: a
// loser-tree S-way merge over the per-shard in-order iterators, O(log S)
// comparisons per element.
func (s Snap[K, V, A]) ForEach(f func(K, V)) {
	st := s.m.getScan()
	defer s.m.putScan(st)
	st.seekMin(s)
	for w := st.winner(); w >= 0; w = st.winner() {
		f(st.its[w].Key(), st.its[w].Val())
		st.step()
	}
}

// ForEachCond visits every entry across all shards in global key order
// until f returns false; it reports whether the walk ran to completion.
// Like RangeFunc it streams — nothing is materialized and the merge stops
// the moment f says so.
func (s Snap[K, V, A]) ForEachCond(f func(K, V) bool) bool {
	st := s.m.getScan()
	defer s.m.putScan(st)
	st.seekMin(s)
	for w := st.winner(); w >= 0; w = st.winner() {
		if !f(st.its[w].Key(), st.its[w].Val()) {
			return false
		}
		st.step()
	}
	return true
}

// RangeFunc streams the entries with keys in [lo, hi] across all shards
// in global key order, stopping early when f returns false; it reports
// whether the walk ran to completion.  On a Snap from ViewConsistent the
// streamed prefix reflects one global commit cut (see Snap.GSNs); on a
// plain View snap it carries per-shard semantics only.
func (s Snap[K, V, A]) RangeFunc(lo, hi K, f func(K, V) bool) bool {
	st := s.m.getScan()
	defer s.m.putScan(st)
	st.seekGE(s, lo)
	for w := st.winner(); w >= 0; w = st.winner() {
		k, v := st.its[w].Key(), st.its[w].Val()
		if st.cmp(k, hi) > 0 {
			return true
		}
		if !f(k, v) {
			return false
		}
		st.step()
	}
	return true
}

// ScanFunc streams up to n entries with keys ≥ lo in global key order,
// stopping early if f returns false, and returns the number visited —
// the YCSB short-scan access path.
func (s Snap[K, V, A]) ScanFunc(lo K, n int, f func(K, V) bool) int {
	st := s.m.getScan()
	defer s.m.putScan(st)
	st.seekGE(s, lo)
	got := 0
	for w := st.winner(); w >= 0 && got < n; w = st.winner() {
		got++
		if !f(st.its[w].Key(), st.its[w].Val()) {
			break
		}
		st.step()
	}
	return got
}

// ScanAppend appends up to n entries with keys ≥ lo, in global key order,
// to dst and returns the extended slice.  When dst has capacity for the
// result, a warm call allocates nothing — this is the zero-alloc
// fixed-length scan path the allocation gate measures.
func (s Snap[K, V, A]) ScanAppend(dst []ftree.Entry[K, V], lo K, n int) []ftree.Entry[K, V] {
	st := s.m.getScan()
	defer s.m.putScan(st)
	st.seekGE(s, lo)
	for w := st.winner(); w >= 0 && n > 0; w = st.winner() {
		dst = append(dst, ftree.Entry[K, V]{Key: st.its[w].Key(), Val: st.its[w].Val()})
		n--
		st.step()
	}
	return dst
}

// Scan returns up to n entries with keys ≥ lo in global key order.  Use
// ScanAppend to reuse a result buffer across scans, or ScanFunc/RangeFunc
// to stream without materializing at all.
func (s Snap[K, V, A]) Scan(lo K, n int) []ftree.Entry[K, V] {
	return s.ScanAppend(nil, lo, n)
}

// ForEachChunked visits every entry in global key order like
// Snap.ForEachCond, but with bounded staleness instead of one frozen
// snapshot: every n entries the walk drops its pin and re-seeks at the
// last visited key against a freshly pinned per-shard View (the pooled
// seekGE restart — allocation-free once warm).  An analytics-length walk
// therefore never stretches any shard's uncollected-version window beyond
// one chunk.  The price is snapshot semantics: each key is visited at most
// once and keys stream in strictly increasing order, but entries ahead of
// the walk observe commits that land between chunks, and entries behind it
// are never revisited.  It reports whether the walk ran to completion
// (false when f stopped it or the map closed mid-walk).  n <= 0 degrades
// to ForEachCond under a single pin.
//
// This lives on Map, not Snap, by construction: a Snap is only valid
// inside the View callback that pinned it, so a walk that releases and
// re-acquires pins has to own the pinning itself.
func (m *Map[K, V, A]) ForEachChunked(n int, f func(K, V) bool) bool {
	return m.forEachChunked(n, f, m.View)
}

// ForEachChunkedConsistent is ForEachChunked with every chunk pinned by
// ViewConsistent: each chunk reflects one global commit cut — a fresh cut
// per chunk, so the walk as a whole is bounded-stale, not atomic.
func (m *Map[K, V, A]) ForEachChunkedConsistent(n int, f func(K, V) bool) bool {
	return m.forEachChunked(n, f, m.ViewConsistent)
}

func (m *Map[K, V, A]) forEachChunked(n int, f func(K, V) bool, view func(func(Snap[K, V, A]))) bool {
	if n <= 0 {
		done, entered := false, false
		view(func(s Snap[K, V, A]) {
			entered = true
			done = s.ForEachCond(f)
		})
		return done && entered
	}
	var (
		last    K
		first   = true
		stopped = false
	)
	for {
		entered, full := false, false
		view(func(s Snap[K, V, A]) {
			entered = true
			st := m.getScan()
			defer m.putScan(st)
			if first {
				st.seekMin(s)
			} else {
				st.seekGE(s, last)
				// The anchor key itself was visited by the previous
				// chunk (unless it was deleted in between).
				if w := st.winner(); w >= 0 && st.cmp(st.its[w].Key(), last) == 0 {
					st.step()
				}
			}
			count := 0
			for w := st.winner(); w >= 0; w = st.winner() {
				k, v := st.its[w].Key(), st.its[w].Val()
				if !f(k, v) {
					stopped = true
					return
				}
				last, first = k, false
				if count++; count == n {
					full = true
					return
				}
				st.step()
			}
		})
		if !entered || stopped {
			return false
		}
		if !full {
			return true
		}
	}
}

package shard

import (
	"runtime"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// consistentRetries bounds ViewConsistent's optimistic double-collect
// attempts before it falls back to fencing the writer slots.  Small: each
// failed attempt costs S pins, and the fence holds writers only for one
// collect and S pins.
const consistentRetries = 8

// withPinned acquires one handle and one version per shard in ascending
// shard order, runs f against the pinned snapshots, then releases
// everything in reverse.  All fan-out read modes are built on it.
func (m *Map[K, V, A]) withPinned(f func(snaps []core.Snapshot[K, V, A])) {
	snaps := make([]core.Snapshot[K, V, A], len(m.shards))
	var rec func(i int)
	rec = func(i int) {
		if i == len(m.shards) {
			f(snaps)
			return
		}
		m.shards[i].With(func(h *core.Handle[K, V, A]) {
			h.Read(func(s core.Snapshot[K, V, A]) {
				snaps[i] = s
				rec(i + 1)
			})
		})
	}
	rec(0)
}

// View runs f against a Snap that pins one version per shard.  Handles and
// versions are acquired in ascending shard order before f runs and released
// after it returns, so f sees S stable immutable snapshots — per-shard
// consistent, NOT a single global snapshot: a concurrent multi-shard write
// may be visible on some shards of the Snap and not others.  Use ViewConsistent when that matters.
// View blocks while all P pids of any shard are leased.  After Close
// it returns without running f.
func (m *Map[K, V, A]) View(f func(s Snap[K, V, A])) {
	if !m.enter(0) {
		return
	}
	defer m.exit(0)
	m.withPinned(func(snaps []core.Snapshot[K, V, A]) {
		f(Snap[K, V, A]{m: m, snaps: snaps})
	})
}

// ViewConsistent runs f against a Snap whose S pinned versions form one
// consistent global cut: no cross-shard UpdateAtomic transaction is ever
// observed torn, and the Snap carries the per-shard GSN vector it reflects
// (Snap.GSNs).  The guarantee, precisely: for every shard i, the pinned
// root contains all commits stamped <= GSNs()[i] (and, transiently, may
// contain later single-shard commits, which are atomic on their own); for
// every UpdateAtomic transaction, either all or none of its per-shard roots
// are visible.
//
// Protocol (why no reader lock): collect the per-shard (latest-GSN,
// install-seq) vector, pin one version per shard, collect again.  Stable
// even seqlocks prove no atomic install overlapped the pins — the cut is
// tear-free — and because stamps are allocated only after their root is
// visible (gsn.go), the GSN vector collected *before* the pins is a
// sound prefix bound whether or not stamps moved while pinning (if they
// also held still, the cut is additionally exact: no commit of any kind
// landed during it).  Only seqlock instability forces a retry; after
// consistentRetries failed attempts (sustained atomic-install overlap) it
// falls back to briefly fencing the writer slots in ascending shard order:
// with the slots held no write of any kind can commit, so the fenced
// attempt is definitive.  The optimistic path blocks no writer; the fence
// holds them for one GSN collect and S pins, never for f.  After Close it
// returns without running f.
func (m *Map[K, V, A]) ViewConsistent(f func(s Snap[K, V, A])) {
	if !m.enter(0) {
		return
	}
	defer m.exit(0)
	m.viewConsistent(f)
}

// viewConsistent is ViewConsistent without the close gate, for internal
// callers (Checkpoint) that already hold a gate entry.
func (m *Map[K, V, A]) viewConsistent(f func(s Snap[K, V, A])) {
	n := len(m.shards)
	gsns := make([]uint64, n)
	seqs := make([]uint64, n)
	max := m.maxCollects
	if max == 0 {
		max = consistentRetries
	}
	for try := 0; try < max; try++ {
		stable := true
		for i, s := range m.shards {
			q := s.seq.Load()
			if q&1 != 0 { // an atomic install is mid-flight; pinning now would be wasted
				stable = false
				break
			}
			seqs[i] = q
			gsns[i] = s.latest.Load()
		}
		if !stable {
			m.snapRetries.Add(1)
			runtime.Gosched()
			continue
		}
		done := false
		m.withPinned(func(snaps []core.Snapshot[K, V, A]) {
			for i, s := range m.shards {
				if s.seq.Load() != seqs[i] {
					return // an atomic install overlapped the pins: retry
				}
			}
			// Seqlocks held still: the cut is tear-free, and gsns — read
			// before the pins — is a sound prefix bound even if plain
			// commits moved the stamps meanwhile.
			done = true
			f(Snap[K, V, A]{m: m, snaps: snaps, gsns: gsns})
		})
		if done {
			return
		}
		m.snapRetries.Add(1)
	}
	// Fence fallback: exclude every writer for the duration of one pin
	// pass.  The GSN vector is collected before pinning and needs no second
	// collect: with the slots held nothing commits until the pins are done.
	// The slots are released as soon as the last version is pinned: pinned
	// versions are immutable, so f — often a long scan, exactly what
	// ViewConsistent is for — must not extend the writer stall.
	m.fenced.Add(1)
	for _, s := range m.shards {
		s.LockWriterSlot()
	}
	unfenced := false
	unfence := func() {
		if !unfenced {
			unfenced = true
			for i := n - 1; i >= 0; i-- {
				m.shards[i].UnlockWriterSlot()
			}
		}
	}
	defer unfence()
	for i, s := range m.shards {
		gsns[i] = s.latest.Load()
	}
	m.withPinned(func(snaps []core.Snapshot[K, V, A]) {
		unfence()
		f(Snap[K, V, A]{m: m, snaps: snaps, gsns: gsns})
	})
}

// ConsistentStats reports ViewConsistent's failed double-collect attempts
// and fence fallbacks since the map was created.
func (m *Map[K, V, A]) ConsistentStats() (retries, fenced int64) {
	return m.snapRetries.Load(), m.fenced.Load()
}

// Snap is a fan-out read view: one pinned version per shard, valid only
// within the View or ViewConsistent callback.  Under View the S versions
// are per-shard consistent only; under ViewConsistent they form one global
// cut and GSNs reports the commit-sequence vector the cut reflects.
type Snap[K, V, A any] struct {
	m     *Map[K, V, A]
	snaps []core.Snapshot[K, V, A]
	gsns  []uint64 // non-nil only for ViewConsistent snaps
}

// Shard exposes shard i's pinned snapshot.
func (s Snap[K, V, A]) Shard(i int) core.Snapshot[K, V, A] { return s.snaps[i] }

// GSNs returns the per-shard global-commit-sequence vector this snap
// reflects, or nil for a plain View snap.  For a ViewConsistent snap,
// shard i's pinned root contains every commit stamped <= GSNs()[i], and no
// UpdateAtomic transaction is visible on some shards but not others.  The
// slice is valid only within the callback and must not be mutated.
func (s Snap[K, V, A]) GSNs() []uint64 { return s.gsns }

// Consistent reports whether this snap was produced by ViewConsistent and
// therefore carries the cross-shard atomicity guarantee.
func (s Snap[K, V, A]) Consistent() bool { return s.gsns != nil }

// Get returns the value stored under k in k's shard snapshot.
func (s Snap[K, V, A]) Get(k K) (V, bool) { return s.snaps[s.m.ShardFor(k)].Get(k) }

// Has reports whether k is present.
func (s Snap[K, V, A]) Has(k K) bool { return s.snaps[s.m.ShardFor(k)].Has(k) }

// Len sums the per-shard snapshot sizes.  Under View the per-shard counts
// are pinned at slightly different instants, so under concurrent writes the
// total is approximate (per-shard semantics).  Under ViewConsistent the
// counts form one tear-free cut: no atomic transaction is half-counted,
// though concurrent plain single-key commits may each be included or not
// (each wholly, they are atomic on their own).
func (s Snap[K, V, A]) Len() int64 {
	var n int64
	for _, sn := range s.snaps {
		n += sn.Len()
	}
	return n
}

// AugRange folds the augmented value over keys in [lo, hi] across all
// shards (each shard in O(log n)); the per-shard results are combined with
// the augmenter's Combine, which must be commutative for hash-partitioned
// key sets (true for sums, maxima and all symmetric monoids).
func (s Snap[K, V, A]) AugRange(lo, hi K) A {
	ops := s.m.shards[0].Ops()
	a := ops.Aug.Zero()
	for _, sn := range s.snaps {
		a = ops.Aug.Combine(a, sn.AugRange(lo, hi))
	}
	return a
}

// Range returns the entries with keys in [lo, hi] across all shards,
// merged into global key order.  It materializes the whole result; use
// RangeFunc, ScanFunc or ForEachCond to stream with early exit instead.
func (s Snap[K, V, A]) Range(lo, hi K) []ftree.Entry[K, V] {
	var out []ftree.Entry[K, V]
	s.RangeFunc(lo, hi, func(k K, v V) bool {
		out = append(out, ftree.Entry[K, V]{Key: k, Val: v})
		return true
	})
	return out
}

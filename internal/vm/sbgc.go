package vm

import "sync/atomic"

// SBGC is a space-bounded Version Maintenance solution in the spirit of the
// follow-on work on bounded-space multiversion GC (Space and Time Bounded
// Multiversion Garbage Collection, arXiv 2108.02775; Practically and
// Theoretically Efficient Garbage Collection for Multiversioning, arXiv
// 2212.13557).  Where HP protects the exact pointer a reader announced,
// SBGC protects a *timestamp*: every successful Set stamps its version with
// a fresh value of a global clock, a reader announces the birth timestamp
// of the version it acquired, and compaction keeps, per announced
// timestamp, only the one retired version whose lifetime interval
// [born, died) contains it — every intermediate version a pinned reader
// skipped over is collected even while the pin is held.  That is what
// bounds space under a long-reader-plus-write-storm: retired lists hold at
// most 2P entries each regardless of how long any reader stays pinned.
//
// Like HP it is safe but imprecise (a dead version can wait on a retired
// list until its owner's next compacting Release), and Acquire is
// lock-free, not wait-free: it retries when the current version moves
// between the read and the announcement.  Unlike HP, validation compares
// timestamps rather than pointers, which lets SBGC recycle its node
// wrappers through per-process pools without reuse-ABA: a node's timestamp
// strictly increases across lifetimes, so a stale reader that announced an
// old birth can never validate against a recycled node.
type SBGC[T any] struct {
	p     int
	cur   atomic.Pointer[sbgcNode[T]] // node-typed: not the swap core's pointer
	clock atomic.Uint64               // last issued birth timestamp; real stamps are >= 1
	ann   []word                      // announced birth timestamps, one per process; 0 = idle

	acq     []sbgcPriv[T]    // the node each process acquired (private, padded)
	retired [][]sbgcEntry[T] // per-process retired lists, born-ascending (private)
	pool    [][]*sbgcNode[T] // per-process recycled node wrappers (private)
	annBuf  [][]uint64       // per-process scratch for compaction scans (private)

	nRet counter // total retired-and-uncollected versions
}

// sbgcNode wraps a version with its birth timestamp.  Wrappers are recycled
// through per-process pools; ts strictly increases across a wrapper's
// lifetimes (every Set stamps a fresh clock value), which is what defeats
// reuse-ABA during Acquire's validation.
type sbgcNode[T any] struct {
	data atomic.Pointer[T]
	ts   atomic.Uint64
}

// sbgcEntry is one retired version with its lifetime interval [born, died):
// a reader whose announced timestamp a satisfies born <= a < died acquired
// exactly this version.  Within one process's retired list the intervals
// are disjoint and born-ascending, because died(old) = born(new) for each
// successful Set and a process's successive successful Sets carry strictly
// increasing stamps.
type sbgcEntry[T any] struct {
	n    *sbgcNode[T]
	born uint64
	died uint64
}

// sbgcPriv is one process's private acquired-node slot, padded so
// neighbouring processes do not share cache lines.
type sbgcPriv[T any] struct {
	n *sbgcNode[T]
	_ [7]uint64
}

// NewSBGC returns a space-bounded Version Maintenance object for p
// processes.
func NewSBGC[T any](p int, initial *T) *SBGC[T] {
	m := &SBGC[T]{
		p:       p,
		ann:     make([]word, p),
		acq:     make([]sbgcPriv[T], p),
		retired: make([][]sbgcEntry[T], p),
		pool:    make([][]*sbgcNode[T], p),
		annBuf:  make([][]uint64, p),
	}
	n := &sbgcNode[T]{}
	n.data.Store(initial)
	n.ts.Store(1)
	m.clock.Store(1)
	m.cur.Store(n)
	return m
}

func (m *SBGC[T]) Name() string { return "sbgc" }
func (m *SBGC[T]) Procs() int   { return m.p }

// Acquire reads the current version, announces its birth timestamp, and
// revalidates both the pointer and the stamp.  Once the validation passes
// the announcement protects the version: any later compaction keeps the
// newest version born at-or-below the announced stamp, which is exactly
// this one (successors are born strictly later).  A recycled wrapper
// cannot satisfy the validation because its stamp has moved on.
func (m *SBGC[T]) Acquire(k int) *T {
	for {
		n := m.cur.Load()
		if n == nil {
			return nil
		}
		b := n.ts.Load()
		m.ann[k].store(b)
		if m.cur.Load() == n && n.ts.Load() == b {
			m.acq[k].n = n
			return n.data.Load()
		}
	}
}

// Set stamps a (possibly recycled) wrapper with a fresh clock value and
// CASes it into place; on success the replaced version is retired with the
// interval [its birth, the new birth).  The data store precedes the stamp
// store, so a reader that validates the new stamp reads the new data.
func (m *SBGC[T]) Set(k int, data *T) bool {
	old := m.acq[k].n
	n := m.node(k)
	n.data.Store(data)
	born := m.clock.Add(1)
	n.ts.Store(born)
	if !m.cur.CompareAndSwap(old, n) {
		n.data.Store(nil)
		m.pool[k] = append(m.pool[k], n)
		return false
	}
	// ann[k] still holds old's birth from this process's Acquire, and the
	// announcement keeps old's stamp frozen while we hold it.
	m.retired[k] = append(m.retired[k], sbgcEntry[T]{n: old, born: m.ann[k].load(), died: born})
	m.nRet.v.Add(1)
	return true
}

// node pops a recycled wrapper or allocates one.  The pool refills from
// compaction, so a steady-state writer stops allocating wrappers entirely.
func (m *SBGC[T]) node(k int) *sbgcNode[T] {
	if n := len(m.pool[k]); n > 0 {
		nd := m.pool[k][n-1]
		m.pool[k] = m.pool[k][:n-1]
		return nd
	}
	return new(sbgcNode[T])
}

// ReleaseInto clears the announcement.  When the caller's retired list has
// reached 2P entries it compacts: each of the at-most-P live announcements
// protects at most one entry (the intervals are disjoint), so at least P
// entries are returned and the amortized cost per Set is O(1).
func (m *SBGC[T]) ReleaseInto(k int, out []*T) []*T {
	m.ann[k].store(0)
	m.acq[k].n = nil
	if len(m.retired[k]) < 2*m.p {
		return out
	}
	return m.compact(k, out)
}

// compact walks the born-ascending retired list against the sorted live
// announcements and keeps an entry exactly when some announced timestamp a
// falls inside its interval (born <= a < died) — the interval-keep rule.
// Everything else, including intermediate versions a long-pinned reader
// skipped over, is returned for collection and its wrapper pooled.  The
// scan is allocation-free: the announcement scratch, the retired list and
// the pool are all reused in place.
func (m *SBGC[T]) compact(k int, out []*T) []*T {
	anns := m.annBuf[k][:0]
	for i := 0; i < m.p; i++ {
		if a := m.ann[i].load(); a != 0 {
			anns = append(anns, a)
		}
	}
	// Insertion sort: at most P elements, and sort.Slice would allocate.
	for i := 1; i < len(anns); i++ {
		for j := i; j > 0 && anns[j] < anns[j-1]; j-- {
			anns[j], anns[j-1] = anns[j-1], anns[j]
		}
	}
	keep := m.retired[k][:0]
	freed := 0
	j := 0
	for _, e := range m.retired[k] {
		for j < len(anns) && anns[j] < e.born {
			j++
		}
		if j < len(anns) && anns[j] < e.died {
			keep = append(keep, e)
			continue
		}
		out = append(out, e.n.data.Load())
		e.n.data.Store(nil)
		m.pool[k] = append(m.pool[k], e.n)
		freed++
	}
	m.retired[k] = keep
	m.annBuf[k] = anns[:0]
	m.nRet.v.Add(-int64(freed))
	return out
}

// Uncollected reports retired-but-unfreed versions plus the current one.
func (m *SBGC[T]) Uncollected() int {
	n := int(m.nRet.v.Load())
	if m.cur.Load() != nil {
		n++
	}
	return n
}

// Drain returns every retired version and the current version exactly once.
func (m *SBGC[T]) Drain() []*T {
	var out []*T
	for k := range m.retired {
		for _, e := range m.retired[k] {
			out = append(out, e.n.data.Load())
		}
		m.retired[k] = nil
		m.pool[k] = nil
	}
	m.nRet.v.Store(0)
	if c := m.cur.Load(); c != nil {
		out = append(out, c.data.Load())
		m.cur.Store(nil)
	}
	return out
}

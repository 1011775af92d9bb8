package vm

import (
	"sync"
	"sync/atomic"
)

// Epoch is the epoch-based Version Maintenance solution of Section 6.
// Execution is divided into epochs; Acquire announces the current epoch and
// then reads the current version, Set retires the superseded version into
// the current epoch's bag, and a Release that follows a successful Set
// scans the announcements — if every active process has announced the
// current epoch it advances the epoch with a CAS and returns the versions
// retired two epochs ago, which no one can still reach.
//
// Epoch-based reclamation is safe but imprecise: a single slow reader
// pinned to an old epoch stalls reclamation globally, so the number of
// uncollected versions is unbounded in theory (and reaches the hundreds in
// the paper's Figure 6 under frequent updates).
type Epoch[T any] struct {
	swap[T]
	epoch atomic.Uint64
	ann   []word // per-process ⟨epoch, active⟩ announcements
	wrote []bool // per-process "my Set succeeded" flag (private per k)

	mu   sync.Mutex // guards bags (cold path: retire + epoch advance)
	bags [3]epochBag[T]
}

type epochBag[T any] struct {
	epoch    uint64
	versions []*T
}

// Epoch announcements pack ⟨epoch, active⟩ with active in bit 0, so the
// zero word means "never participated".
func epPack(e uint64, active bool) uint64 {
	w := e << 1
	if active {
		w |= 1
	}
	return w
}

func epActive(w uint64) bool  { return w&1 != 0 }
func epEpoch(w uint64) uint64 { return w >> 1 }

// NewEpoch returns an epoch-based Version Maintenance object for p
// processes.
func NewEpoch[T any](p int, initial *T) *Epoch[T] {
	m := &Epoch[T]{ann: make([]word, p), wrote: make([]bool, p)}
	m.init(p, initial)
	m.epoch.Store(3) // start past the bag window so indices never underflow
	for i := range m.bags {
		m.bags[i].epoch = uint64(i)
	}
	return m
}

func (m *Epoch[T]) Name() string { return "epoch" }

// Acquire announces the current epoch and returns the current version.
// Unlike hazard pointers there is no revalidation loop, so Acquire is
// wait-free with O(1) steps — imprecision is the price.
func (m *Epoch[T]) Acquire(k int) *T {
	e := m.epoch.Load()
	m.ann[k].store(epPack(e, true))
	return m.load(k)
}

// Set CASes the new version in and retires the replaced version into the
// current epoch's bag.  The epoch is sampled under the bag mutex so that a
// retire into epoch e+1 cannot recycle the slot still holding epoch e-2's
// versions before the concurrent epoch-advance drains it.
func (m *Epoch[T]) Set(k int, data *T) bool {
	old, ok := m.install(k, data)
	if !ok {
		return false
	}
	m.mu.Lock()
	e := m.epoch.Load()
	m.bag(e).versions = append(m.bag(e).versions, old)
	m.mu.Unlock()
	m.wrote[k] = true
	return true
}

// bag returns the retirement bag for epoch e, recycling the slot that held
// epoch e-3 (whose contents must have been reclaimed before the epoch could
// advance this far).  Callers hold mu.
func (m *Epoch[T]) bag(e uint64) *epochBag[T] {
	b := &m.bags[e%3]
	if b.epoch != e {
		b.epoch = e
		b.versions = b.versions[:0]
	}
	return b
}

// ReleaseInto marks the caller quiescent.  Only a release following the
// caller's own successful Set pays for the announcement scan (the paper's
// optimization, which increases the uncollected count by at most one); if
// every active process has announced the current epoch it advances the
// epoch and appends the bag retired two epochs ago.
func (m *Epoch[T]) ReleaseInto(k int, out []*T) []*T {
	e := m.epoch.Load()
	m.ann[k].store(epPack(e, false))
	m.acq[k].p.Store(nil)
	if !m.wrote[k] {
		return out
	}
	m.wrote[k] = false
	for i := 0; i < m.p; i++ {
		a := m.ann[i].load()
		if epActive(a) && epEpoch(a) != e {
			return out // someone is still reading in an older epoch
		}
	}
	m.mu.Lock()
	if !m.epoch.CompareAndSwap(e, e+1) {
		m.mu.Unlock()
		return out // another releaser advanced the epoch and took the bag
	}
	// Drain epoch e-2's bag before releasing the mutex, so no retire into
	// epoch e+1 (which shares the slot mod 3) can recycle it first.
	b := m.bag(e - 2)
	n := len(b.versions)
	out = append(out, b.versions...)
	b.versions = b.versions[:0]
	m.mu.Unlock()
	m.nRet.v.Add(-int64(n))
	return out
}

// Drain empties every epoch bag and the current version exactly once.
func (m *Epoch[T]) Drain() []*T {
	var out []*T
	m.mu.Lock()
	for i := range m.bags {
		out = append(out, m.bags[i].versions...)
		m.bags[i].versions = nil
	}
	m.mu.Unlock()
	return m.drain(out)
}

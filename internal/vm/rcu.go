package vm

import (
	"runtime"
	"sync/atomic"
)

// RCU is the read-copy-update based Version Maintenance solution of
// Section 6, in the style of the Citrus RCU used by the paper: read_lock
// records the current grace period in the caller's padded slot, and
// synchronize advances the grace period and waits for every read-side
// critical section that began before the advance.
//
// RCU is precise — at most two versions exist and the old one is returned
// the moment its last pre-existing reader leaves — but the writer's Release
// blocks on readers, which is exactly the behaviour Table 2 shows as
// collapsed update throughput under long queries.
type RCU[T any] struct {
	swap[T]
	gp   atomic.Uint64 // grace-period counter, even values; bit 0 of a slot means "reading"
	rc   []word        // per-process read-side state: 0 = quiescent, gp|1 = reading
	pend []ptr[T]      // per-process version awaiting a grace period (private)
}

// NewRCU returns an RCU-based Version Maintenance object for p processes.
func NewRCU[T any](p int, initial *T) *RCU[T] {
	m := &RCU[T]{rc: make([]word, p), pend: make([]ptr[T], p)}
	m.init(p, initial)
	m.gp.Store(2)
	return m
}

func (m *RCU[T]) Name() string { return "rcu" }

// Acquire enters a read-side critical section and returns the current
// version.  Wait-free, O(1).
func (m *RCU[T]) Acquire(k int) *T {
	m.rc[k].store(m.gp.Load() | 1)
	return m.load(k)
}

// Set publishes the new version; the replaced version is remembered so the
// following Release can wait out its readers and return it.
func (m *RCU[T]) Set(k int, data *T) bool {
	old, ok := m.install(k, data)
	if ok {
		m.pend[k].p.Store(old)
	}
	return ok
}

// ReleaseInto leaves the read-side critical section.  If the caller's Set
// succeeded it then synchronizes — blocking until every reader that
// predates the new version has left — and appends the superseded version.
func (m *RCU[T]) ReleaseInto(k int, out []*T) []*T {
	m.rc[k].store(0)
	m.acq[k].p.Store(nil)
	old := m.pend[k].p.Load()
	if old == nil {
		return out
	}
	m.pend[k].p.Store(nil)
	m.synchronize()
	m.nRet.v.Add(-1)
	return append(out, old)
}

// synchronize starts a new grace period and waits for all read-side
// critical sections that existed when it began.
func (m *RCU[T]) synchronize() {
	next := m.gp.Add(2)
	for i := 0; i < m.p; i++ {
		for {
			v := m.rc[i].load()
			if v == 0 || v >= next {
				break // quiescent, or started after the grace period began
			}
			runtime.Gosched()
		}
	}
}

// Drain returns any pending version and the current version exactly once.
func (m *RCU[T]) Drain() []*T {
	var out []*T
	for k := range m.pend {
		if v := m.pend[k].p.Load(); v != nil {
			out = append(out, v)
			m.pend[k].p.Store(nil)
		}
	}
	return m.drain(out)
}

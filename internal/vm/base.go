package vm

import "sync"

// Base is the no-maintenance baseline of Table 2 ("Base"): Acquire loads
// the current version, Set CASes it, and Release never returns anything, so
// superseded versions are never collected during the run.  It measures the
// cost of the transactional loop with zero version-maintenance and zero GC
// overhead.  Superseded versions are recorded (cheaply, writer-side) only
// so Drain can hand every allocation back for end-of-run accounting.
type Base[T any] struct {
	swap[T]
	mu     sync.Mutex // guards leaked; the shared count keeps Uncollected off it
	leaked []*T
}

// NewBase returns the no-VM baseline for p processes.
func NewBase[T any](p int, initial *T) *Base[T] {
	m := new(Base[T])
	m.init(p, initial)
	return m
}

func (m *Base[T]) Name() string { return "base" }

// Acquire returns the current version with no protection whatsoever.
func (m *Base[T]) Acquire(k int) *T { return m.load(k) }

// Set CASes the new version into place.
func (m *Base[T]) Set(k int, data *T) bool {
	old, ok := m.install(k, data)
	if ok {
		m.mu.Lock()
		m.leaked = append(m.leaked, old)
		m.mu.Unlock()
	}
	return ok
}

// ReleaseInto returns out unchanged: the baseline never collects.
func (m *Base[T]) ReleaseInto(k int, out []*T) []*T {
	m.acq[k].p.Store(nil)
	return out
}

// Drain returns all superseded versions and the current version.
func (m *Base[T]) Drain() []*T {
	m.mu.Lock()
	out := m.leaked
	m.leaked = nil
	m.mu.Unlock()
	return m.drain(out)
}

// New constructs the named Version Maintenance algorithm for p processes.
// Recognized names: pswf, pslf, hp, epoch, rcu, sbgc, base.  It returns nil
// for unknown names.
func New[T any](name string, p int, initial *T) Maintainer[T] {
	switch name {
	case "pswf":
		return NewPSWF(p, initial)
	case "pslf":
		return NewPSLF(p, initial)
	case "hp":
		return NewHP(p, initial)
	case "epoch":
		return NewEpoch(p, initial)
	case "rcu":
		return NewRCU(p, initial)
	case "sbgc":
		return NewSBGC(p, initial)
	case "base":
		return NewBase(p, initial)
	}
	return nil
}

// Names lists the available algorithms in the order the paper's tables
// report them, followed by the post-paper additions.
func Names() []string { return []string{"base", "pswf", "pslf", "hp", "epoch", "rcu", "sbgc"} }

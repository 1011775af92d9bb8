package vm

import "sync/atomic"

// swap is the pointer-swap core HP, Epoch, RCU and Base embed: a current
// pointer that Set replaces by CAS, each process's acquired version, and
// the count of superseded versions not yet handed back.  The embedding type
// adds how a reader is protected and where a superseded version waits.
type swap[T any] struct {
	p    int
	cur  atomic.Pointer[T]
	acq  []ptr[T] // the version each process acquired (private, padded)
	nRet counter  // superseded versions not yet handed back
}

func (m *swap[T]) init(p int, initial *T) {
	m.p = p
	m.acq = make([]ptr[T], p)
	m.cur.Store(initial)
}

func (m *swap[T]) Procs() int { return m.p }

// load reads the current version as process k's acquired one.
func (m *swap[T]) load(k int) *T {
	v := m.cur.Load()
	m.acq[k].p.Store(v)
	return v
}

// install CASes data over the version process k acquired.  On success it
// counts the replaced version as retained and returns it for the embedding
// type to keep; ok is false, with no effect, if another Set got there first.
func (m *swap[T]) install(k int, data *T) (old *T, ok bool) {
	old = m.acq[k].p.Load()
	if !m.cur.CompareAndSwap(old, data) {
		return nil, false
	}
	m.nRet.v.Add(1)
	return old, true
}

// Uncollected reports superseded-but-unreturned versions plus the current
// one.
func (m *swap[T]) Uncollected() int {
	n := int(m.nRet.v.Load())
	if m.cur.Load() != nil {
		n++
	}
	return n
}

// drain is the last step of Drain: it appends the current version, once,
// to the superseded ones the embedding type collected in out.
func (m *swap[T]) drain(out []*T) []*T {
	m.nRet.v.Store(0)
	if c := m.cur.Swap(nil); c != nil {
		out = append(out, c)
	}
	return out
}

package vm

// HP is the hazard-pointer based Version Maintenance solution of Section 6.
// Each process announces the version it intends to use and revalidates
// against the current version; a successful Set retires the superseded
// version onto the setter's retired list, and a Release whose retired list
// has grown to 2P scans the announcements and returns every unannounced
// retired version.
//
// HP is safe but imprecise: a dead version can linger on a retired list for
// arbitrarily long (until that process's next expensive Release), and up to
// 2P versions per process can be outstanding.  Acquire is lock-free, not
// wait-free: it retries whenever the current version moves between the read
// and the announcement.
type HP[T any] struct {
	swap[T]
	ann       []ptr[T]          // hazard announcements, one per process
	retired   [][]*T            // per-process retired lists (private)
	announced []map[*T]struct{} // per-process scan scratch (private)
}

// NewHP returns a hazard-pointer Version Maintenance object for p processes.
func NewHP[T any](p int, initial *T) *HP[T] {
	m := &HP[T]{
		ann:       make([]ptr[T], p),
		retired:   make([][]*T, p),
		announced: make([]map[*T]struct{}, p),
	}
	for k := range m.announced {
		m.announced[k] = make(map[*T]struct{}, p)
	}
	m.init(p, initial)
	return m
}

func (m *HP[T]) Name() string { return "hp" }

// Acquire reads the current version, announces it, and revalidates; it
// restarts if the current version moved in between.
func (m *HP[T]) Acquire(k int) *T {
	for {
		v := m.load(k)
		m.ann[k].p.Store(v)
		if m.cur.Load() == v {
			return v
		}
	}
}

// Set CASes the new version into place and retires the one it replaced.
func (m *HP[T]) Set(k int, data *T) bool {
	old, ok := m.install(k, data)
	if ok {
		m.retired[k] = append(m.retired[k], old)
	}
	return ok
}

// ReleaseInto clears the announcement.  When the caller's retired list has
// reached 2P entries it scans all announcements and appends the retired
// versions nobody has announced; at least P of the 2P entries must be
// unannounced, so the O(P) scan returns Ω(P) versions and the amortized
// cost is O(1).  Otherwise it returns out unchanged — in particular,
// read-only processes never return a version.
func (m *HP[T]) ReleaseInto(k int, out []*T) []*T {
	m.ann[k].p.Store(nil)
	m.acq[k].p.Store(nil)
	if len(m.retired[k]) < 2*m.p {
		return out
	}
	return m.scan(k, out)
}

// scan reuses process k's announced set, so a compacting release allocates
// nothing once the retired list has grown to 2P; the set is cleared on the
// way out, so it holds no version between scans.
func (m *HP[T]) scan(k int, out []*T) []*T {
	announced := m.announced[k]
	for i := 0; i < m.p; i++ {
		if v := m.ann[i].p.Load(); v != nil {
			announced[v] = struct{}{}
		}
	}
	keep := m.retired[k][:0]
	freed := 0
	for _, v := range m.retired[k] {
		if _, ok := announced[v]; ok {
			keep = append(keep, v)
		} else {
			out = append(out, v)
			freed++
		}
	}
	clear(announced)
	m.retired[k] = keep
	m.nRet.v.Add(-int64(freed))
	return out
}

// Drain returns every retired version and the current version exactly once.
func (m *HP[T]) Drain() []*T {
	var out []*T
	for k := range m.retired {
		out = append(out, m.retired[k]...)
		m.retired[k] = nil
	}
	return m.drain(out)
}

package vm

// PSLF is the paper's "algorithm without helping" (Section 7.1): PSWF with
// Acquire and Set overridden so that Set never helps announcements, and an
// Acquire may have to retry each time the current version moves.  A retry
// only happens when some Set succeeded, hence the algorithm is lock-free
// rather than wait-free; it remains precise and safe.
//
// Everything else — the data structures, ReleaseInto, Uncollected and
// Drain — is PSWF's.  Releases still help announcements of the version they
// are freezing: that helping is what makes the frozen state final, and
// removing it would break precision, not just progress.
type PSLF[T any] struct {
	PSWF[T]
}

// NewPSLF returns a PSLF Version Maintenance object for p processes with
// the given initial version.
func NewPSLF[T any](p int, initial *T) *PSLF[T] {
	m := new(PSLF[T])
	m.init(p, initial)
	return m
}

func (m *PSLF[T]) Name() string { return "pslf" }

// Acquire announces and revalidates until an announcement sticks.  With no
// setter-side helping the loop is unbounded, but each extra iteration
// witnesses a distinct successful Set, so the system as a whole progresses.
func (m *PSLF[T]) Acquire(k int) *T {
	u := version(m.v.load())
	m.a[k].store(annPack(u, true))
	for {
		if version(m.v.load()) == u {
			m.a[k].cas(annPack(u, true), annPack(u, false))
			return m.getData(annVer(m.a[k].load()))
		}
		v := version(m.v.load())
		if !m.a[k].cas(annPack(u, true), annPack(v, true)) {
			// A releaser committed our announcement while freezing u's
			// predecessor; whatever is in A[k] is ours to use.
			return m.getData(annVer(m.a[k].load()))
		}
		u = v
	}
}

// Set is Algorithm 4's set without the helping loop.
func (m *PSLF[T]) Set(k int, data *T) bool {
	oldVer := annVer(m.a[k].load())
	slot := -1
	var newVer version
	for i := range m.s {
		if m.s[i].load() == 0 {
			newVer = mkVersion(version(m.v.load()).ts()+1, i)
			if m.s[i].cas(0, stPack(newVer, stUsable)) {
				m.d[i].p.Store(data)
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		return false
	}
	if m.v.cas(uint64(oldVer), uint64(newVer)) {
		return true
	}
	m.s[slot].store(0)
	return false
}

package vm

// PSWF is the paper's precise, safe and wait-free solution to the Version
// Maintenance problem (Algorithm 4).
//
// Data layout (Figure 3): a current-version word V, a status array S of
// 3P+1 slots each holding ⟨version, usable|pending|frozen⟩, a data array D
// parallel to S, and an announcement array A of P slots each holding
// ⟨version, help⟩.
//
// Cost bounds (Theorems 3.4 and 3.5): Acquire takes O(1) steps, Set and
// Release take O(P) steps; in the single-writer setting every operation has
// O(1) amortized contention per step.  The steps* fields expose instrumented
// shared-memory step counts so the bounds can be checked by tests.
type PSWF[T any] struct {
	p int
	v word     // V: the current version
	s []word   // S[3P+1]: version statuses
	a []word   // A[P]: announcements
	d []ptr[T] // D[3P+1]: data pointers

	// instr enables per-call shared-memory step counting (Table 1 checks).
	instr bool
	steps []counter // per-process step count for the last instrumented call
	casA  counter   // total CAS instructions executed on A (Lemma B.13)
}

// NewPSWF returns a PSWF Version Maintenance object for p processes with
// the given initial version.  The initial version occupies slot 0 with
// timestamp 1.
func NewPSWF[T any](p int, initial *T) *PSWF[T] {
	m := new(PSWF[T])
	m.init(p, initial)
	return m
}

// init lays out the arrays in place, so PSLF can embed a PSWF by value.
func (m *PSWF[T]) init(p int, initial *T) {
	m.p = p
	m.s = make([]word, 3*p+1)
	m.a = make([]word, p)
	m.d = make([]ptr[T], 3*p+1)
	v0 := mkVersion(1, 0)
	m.d[0].p.Store(initial)
	m.s[0].store(stPack(v0, stUsable))
	m.v.store(uint64(v0))
}

// NewPSWFInstrumented is NewPSWF with shared-memory step counting enabled;
// see StepCount.
func NewPSWFInstrumented[T any](p int, initial *T) *PSWF[T] {
	m := NewPSWF(p, initial)
	m.instr = true
	m.steps = make([]counter, p)
	return m
}

func (m *PSWF[T]) Name() string { return "pswf" }
func (m *PSWF[T]) Procs() int   { return m.p }

// StepCount returns the number of shared-memory operations executed by
// process k's last Acquire/Set/Release when instrumentation is enabled.
func (m *PSWF[T]) StepCount(k int) int64 { return m.steps[k].v.Load() }

func (m *PSWF[T]) step(k int, n int64) {
	if m.instr {
		m.steps[k].v.Add(n)
	}
}

func (m *PSWF[T]) resetSteps(k int) {
	if m.instr {
		m.steps[k].v.Store(0)
	}
}

// annCAS performs a CAS on announcement slot i, counting it toward the
// Lemma B.13 bound when instrumentation is on.
func (m *PSWF[T]) annCAS(i int, old, new uint64) bool {
	if m.instr {
		m.casA.v.Add(1)
	}
	return m.a[i].cas(old, new)
}

// AnnouncementCASCount returns the total number of CAS instructions
// executed on the announcement array (instrumented mode only); Lemma B.13
// bounds it by 8 CASes per Acquire.
func (m *PSWF[T]) AnnouncementCASCount() int64 { return m.casA.v.Load() }

func (m *PSWF[T]) getData(v version) *T { return m.d[v.idx()].p.Load() }

// Acquire implements Algorithm 4's acquire(k): read the current version,
// announce it with the help flag raised, and commit it by lowering the flag
// once the announced version is revalidated against V.  If V moves twice
// while we retry, some successful Set is guaranteed to have committed a
// version into A[k] on our behalf (Lemma B.2), so the loop is bounded by
// two iterations and the operation is wait-free with O(1) steps.
func (m *PSWF[T]) Acquire(k int) *T {
	m.resetSteps(k)
	u := version(m.v.load()) // read current version V
	m.a[k].store(annPack(u, true))
	if version(m.v.load()) == u {
		m.annCAS(k, annPack(u, true), annPack(u, false))
		m.step(k, 5)
		return m.getData(annVer(m.a[k].load()))
	}
	m.step(k, 3)
	// Try again with the new version, at most twice.
	for i := 0; i < 2; i++ {
		v := version(m.v.load())
		if !m.annCAS(k, annPack(u, true), annPack(v, true)) {
			// A Set or Release helped us: our announcement was committed.
			m.step(k, 4)
			return m.getData(annVer(m.a[k].load()))
		}
		if version(m.v.load()) == v {
			m.annCAS(k, annPack(v, true), annPack(v, false))
			m.step(k, 6)
			return m.getData(annVer(m.a[k].load()))
		}
		m.step(k, 3)
		u = v
	}
	// Two version changes were observed, so a successful Set performed its
	// three helping CASes on A[k] and committed a version for us.
	m.step(k, 2)
	return m.getData(annVer(m.a[k].load()))
}

// Set implements Algorithm 4's set(k, data): claim an empty slot in S for
// the new version, help every raised announcement so no Acquire is starved,
// then CAS the new version into V.  It aborts (returns false) only when a
// conflicting successful Set is guaranteed to exist (Lemma B.10).
func (m *PSWF[T]) Set(k int, data *T) bool {
	m.resetSteps(k)
	oldVer := annVer(m.a[k].load()) // the version this process acquired
	m.step(k, 1)

	// Find an empty slot for the new version.  S has 3P+1 slots and at most
	// 2P can be occupied at once, so finding none proves we overlapped
	// 2P+1 other Sets, one of which must have succeeded.
	slot := -1
	var newVer version
	for i := range m.s {
		m.step(k, 1)
		if m.s[i].load() == 0 { // ⟨empty, usable⟩
			newVer = mkVersion(version(m.v.load()).ts()+1, i)
			m.step(k, 2)
			if m.s[i].cas(0, stPack(newVer, stUsable)) {
				m.d[i].p.Store(data)
				m.step(k, 1)
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		return false
	}

	// Try to help everyone; three CASes guarantee the help lands because an
	// Acquire can thwart at most two of them (Lemma B.2).
	for i := 0; i < m.p; i++ {
		for j := 0; j < 3; j++ {
			a := m.a[i].load()
			m.step(k, 1)
			if annHelp(a) {
				if version(m.v.load()) != oldVer {
					// A conflicting Set succeeded.  Algorithm 4 returns
					// here without clearing S[slot]; we clear it so the
					// slot does not leak — the claimed version was never
					// installed in V, so no Acquire can have committed it
					// (see DESIGN.md, "Set-failure slot reclamation").
					m.s[slot].store(0)
					m.step(k, 2)
					return false
				}
				m.annCAS(i, a, annPack(oldVer, false))
				m.step(k, 2)
			}
		}
	}

	if m.v.cas(uint64(oldVer), uint64(newVer)) {
		m.step(k, 1)
		return true
	}
	// Lost the race: clear the slot we occupied so others can use it.
	m.s[slot].store(0)
	m.step(k, 2)
	return false
}

// ReleaseInto implements Algorithm 4's release(k).  It clears this
// process's announcement, then drives the released version's status
// machine: usable → pending (one releaser wins and helps outstanding
// announcements of this version) → frozen (no new process can ever commit
// it) → empty.  The releaser that erases the frozen status owns the version
// and appends it to out for collection; everyone else returns out as it
// was.  Precision (Theorem 3.3): the version is returned exactly when it
// stops being live.
func (m *PSWF[T]) ReleaseInto(k int, out []*T) []*T {
	m.resetSteps(k)
	v := annVer(m.a[k].load())
	m.a[k].store(0) // ⟨empty, false⟩
	m.step(k, 2)
	if version(m.v.load()) == v {
		m.step(k, 1)
		return out // still the current version: live by definition
	}
	si := v.idx()
	s := m.s[si].load()
	m.step(k, 2)
	if stVer(s) != v {
		// Some other Release of v already returned it and the slot was
		// cleared or reused.
		return out
	}
	if stStatus(s) == stUsable {
		if !m.s[si].cas(s, stPack(v, stPending)) {
			m.step(k, 1)
			return out // another releaser of v is scanning; it will finish
		}
		// Help every process that announced v so that after the freeze no
		// Acquire of v can be in limbo.
		for i := 0; i < m.p; i++ {
			a := m.a[i].load()
			m.step(k, 1)
			if a == annPack(v, true) {
				m.annCAS(i, a, annPack(v, false))
				m.step(k, 1)
			}
		}
		s = stPack(v, stFrozen)
		m.s[si].store(s)
		m.step(k, 1)
	}
	if stStatus(s) == stFrozen {
		for i := 0; i < m.p; i++ {
			m.step(k, 1)
			if m.a[i].load() == annPack(v, false) {
				return out // someone still has v committed: v is live
			}
		}
		// Read the data before erasing the slot: once S[si] is empty a
		// concurrent Set may claim it and overwrite D[si].
		data := m.d[si].p.Load()
		m.step(k, 2)
		if m.s[si].cas(s, 0) {
			return append(out, data)
		}
		return out // raced with the winning releaser
	}
	return out // pending: another releaser owns the scan
}

// Uncollected counts the versions currently resident in the status array:
// the current version, every acquired-but-unreleased version, and versions
// mid-Set.  For PSWF this is exactly the paper's live-version metric.
func (m *PSWF[T]) Uncollected() int {
	n := 0
	for i := range m.s {
		if m.s[i].load() != 0 {
			n++
		}
	}
	return n
}

// Drain returns the data pointer of every still-occupied slot exactly once,
// clearing the object.  Callers must have quiesced all processes first.
func (m *PSWF[T]) Drain() []*T {
	var out []*T
	for i := range m.s {
		if m.s[i].load() != 0 {
			out = append(out, m.d[i].p.Load())
			m.s[i].store(0)
		}
	}
	m.v.store(0)
	return out
}

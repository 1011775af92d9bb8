package vm

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// payload is the version body used throughout the tests.  The collected
// flag turns use-after-free into a detectable assertion: collectors set it
// exactly once, and holders assert it is unset while they hold the version.
type payload struct {
	id        uint64
	collected atomic.Bool
}

func newMaintainer(t testing.TB, name string, p int, initial *payload) Maintainer[payload] {
	t.Helper()
	m := New[payload](name, p, initial)
	if m == nil {
		t.Fatalf("unknown maintainer %q", name)
	}
	return m
}

var allNames = Names()

// preciseNames are the algorithms whose Release must return a version
// exactly when its last user departs.
var preciseNames = []string{"pswf", "pslf", "rcu"}

func TestNames(t *testing.T) {
	if len(allNames) != 7 {
		t.Fatalf("expected 7 algorithms, got %v", allNames)
	}
	for _, n := range allNames {
		m := New[payload](n, 2, &payload{})
		if m == nil {
			t.Fatalf("New(%q) = nil", n)
		}
		if m.Name() != n {
			t.Errorf("Name() = %q, want %q", m.Name(), n)
		}
		if m.Procs() != 2 {
			t.Errorf("%s: Procs() = %d, want 2", n, m.Procs())
		}
	}
	if New[payload]("nope", 2, &payload{}) != nil {
		t.Error("New with unknown name should return nil")
	}
}

func TestPackingRoundTrip(t *testing.T) {
	f := func(ts uint64, idx uint16, help bool, st uint8) bool {
		ts &= 1<<40 - 1
		v := mkVersion(ts, int(idx))
		if v.ts() != ts || v.idx() != int(idx) {
			return false
		}
		a := annPack(v, help)
		if annVer(a) != v || annHelp(a) != help {
			return false
		}
		s := stPack(v, uint64(st%3))
		return stVer(s) == v && stStatus(s) == uint64(st%3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroWordsAreSentinels(t *testing.T) {
	if annVer(0) != 0 || annHelp(0) {
		t.Error("zero announcement word must be ⟨⊥, false⟩")
	}
	if stVer(0) != 0 || stStatus(0) != stUsable {
		t.Error("zero status word must be ⟨⊥, usable⟩")
	}
}

// TestSequentialProtocol drives the basic acquire/set/release cycle on one
// process and checks the sequential specification of Section 3.
func TestSequentialProtocol(t *testing.T) {
	for _, name := range allNames {
		t.Run(name, func(t *testing.T) {
			v0 := &payload{id: 0}
			m := newMaintainer(t, name, 4, v0)

			if got := m.Acquire(0); got != v0 {
				t.Fatalf("first Acquire = %v, want initial", got)
			}
			if out := m.ReleaseInto(0, nil); len(out) != 0 {
				t.Fatalf("Release of current version returned %d versions, want 0", len(out))
			}

			// acquire → set → release must publish and (for everything but
			// base) eventually hand back the superseded version.
			var freed []*payload
			for i := 1; i <= 10; i++ {
				if got := m.Acquire(0); got.id != uint64(i-1) {
					t.Fatalf("Acquire #%d = id %d, want %d", i, got.id, i-1)
				}
				if !m.Set(0, &payload{id: uint64(i)}) {
					t.Fatalf("uncontended Set #%d failed", i)
				}
				freed = append(freed, m.ReleaseInto(0, nil)...)
			}
			freed = append(freed, m.Drain()...)
			if len(freed) != 11 {
				t.Fatalf("released+drained %d versions, want 11", len(freed))
			}
			seen := make(map[uint64]bool)
			for _, f := range freed {
				if seen[f.id] {
					t.Fatalf("version %d returned twice", f.id)
				}
				seen[f.id] = true
			}
		})
	}
}

// TestPreciseSequentialRelease checks that for the precise algorithms, a
// sequentially executed Release returns the superseded version immediately
// (not deferred to a later call) and returns a singleton.
func TestPreciseSequentialRelease(t *testing.T) {
	for _, name := range preciseNames {
		t.Run(name, func(t *testing.T) {
			m := newMaintainer(t, name, 2, &payload{id: 0})
			for i := 1; i <= 100; i++ {
				m.Acquire(0)
				if !m.Set(0, &payload{id: uint64(i)}) {
					t.Fatalf("Set %d failed", i)
				}
				out := m.ReleaseInto(0, nil)
				if len(out) != 1 {
					t.Fatalf("precise Release returned %d versions, want exactly 1", len(out))
				}
				if out[0].id != uint64(i-1) {
					t.Fatalf("Release returned id %d, want %d", out[0].id, i-1)
				}
				if m.Uncollected() != 1 {
					t.Fatalf("Uncollected = %d after precise release, want 1", m.Uncollected())
				}
			}
		})
	}
}

// TestReaderHoldsVersionAcrossSet: a reader that acquired version v keeps v
// protected while a writer installs new versions; v is returned only by the
// reader's release (precise algorithms), and never before it.
func TestReaderHoldsVersionAcrossSet(t *testing.T) {
	for _, name := range allNames {
		if name == "base" {
			continue
		}
		if name == "rcu" {
			// RCU's writer Release blocks until the pinned reader leaves,
			// so this single-goroutine scenario would deadlock by design;
			// TestRCUWriterBlocksOnReader covers the same ground.
			continue
		}
		t.Run(name, func(t *testing.T) {
			m := newMaintainer(t, name, 4, &payload{id: 0})
			got := m.Acquire(1) // reader on process 1 pins version 0
			if got.id != 0 {
				t.Fatalf("reader acquired id %d", got.id)
			}
			var freedByWriter []*payload
			for i := 1; i <= 5; i++ {
				m.Acquire(0)
				if !m.Set(0, &payload{id: uint64(i)}) {
					t.Fatalf("Set %d failed", i)
				}
				freedByWriter = append(freedByWriter, m.ReleaseInto(0, nil)...)
			}
			for _, f := range freedByWriter {
				if f.id == 0 {
					t.Fatal("writer's release returned the version a reader still holds")
				}
			}
			freedByReader := m.ReleaseInto(1, nil)
			all := append(freedByWriter, freedByReader...)
			all = append(all, m.Drain()...)
			seen := make(map[uint64]bool)
			for _, f := range all {
				if seen[f.id] {
					t.Fatalf("version %d returned twice", f.id)
				}
				seen[f.id] = true
			}
			for i := uint64(0); i <= 5; i++ {
				if !seen[i] {
					t.Fatalf("version %d never returned", i)
				}
			}
			if isPrecise(name) {
				if len(freedByReader) != 1 || freedByReader[0].id != 0 {
					t.Fatalf("precise reader release = %v, want exactly [version 0]", ids(freedByReader))
				}
			}
		})
	}
}

func isPrecise(name string) bool {
	for _, p := range preciseNames {
		if p == name {
			return true
		}
	}
	return false
}

func ids(ps []*payload) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = p.id
	}
	return out
}

// TestSetAbortsOnlyOnConflict: a Set may return false only if another Set
// succeeded since the caller's Acquire (Lemma B.10's guarantee, sequential
// case): with a single process, Set never fails.
func TestSetAbortsOnlyOnConflict(t *testing.T) {
	for _, name := range allNames {
		t.Run(name, func(t *testing.T) {
			m := newMaintainer(t, name, 1, &payload{id: 0})
			for i := 1; i <= 1000; i++ {
				m.Acquire(0)
				if !m.Set(0, &payload{id: uint64(i)}) {
					t.Fatalf("solo Set #%d aborted", i)
				}
				m.ReleaseInto(0, nil)
			}
		})
	}
}

// TestSetConflictDetected: two processes acquire the same version; after one
// sets successfully, the other's Set must fail, and its retry after a fresh
// Acquire must succeed.
func TestSetConflictDetected(t *testing.T) {
	for _, name := range allNames {
		t.Run(name, func(t *testing.T) {
			m := newMaintainer(t, name, 2, &payload{id: 0})
			m.Acquire(0)
			m.Acquire(1)
			if !m.Set(0, &payload{id: 1}) {
				t.Fatal("first Set failed")
			}
			if m.Set(1, &payload{id: 2}) {
				t.Fatal("conflicting Set succeeded; versions diverged")
			}
			// Release the reader side first: RCU's writer Release blocks
			// until readers of the superseded version are gone.
			m.ReleaseInto(1, nil)
			m.ReleaseInto(0, nil)
			m.Acquire(1)
			if !m.Set(1, &payload{id: 3}) {
				t.Fatal("retry after fresh Acquire failed")
			}
			m.ReleaseInto(1, nil)
			if got := m.Acquire(0); got.id != 3 {
				t.Fatalf("current version id = %d, want 3", got.id)
			}
			m.ReleaseInto(0, nil)
		})
	}
}

// modelStep is one operation in the sequential model used by
// TestSequentialModelEquivalence.
type modelState struct {
	current  uint64
	held     map[int]uint64 // process → version id (present only while held)
	holders  map[uint64]int // version id → number of holders
	returned map[uint64]bool
}

// TestSequentialModelEquivalence executes long random—but sequentially
// interleaved—operation histories on the precise algorithms and compares
// every response against the sequential specification of the Version
// Maintenance problem.  Any linearizable implementation must agree with the
// model on sequential histories.
func TestSequentialModelEquivalence(t *testing.T) {
	const procs = 5
	// RCU is precise but not non-blocking: a writer's Release blocks while
	// any other process holds the old version, so random sequential
	// histories cannot always be completed.  Only the non-blocking precise
	// algorithms are model-checked here.
	for _, name := range []string{"pswf", "pslf"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			byID := map[uint64]*payload{0: {id: 0}}
			m := newMaintainer(t, name, procs, byID[0])
			st := modelState{
				current:  0,
				held:     map[int]uint64{},
				holders:  map[uint64]int{},
				returned: map[uint64]bool{},
			}
			nextID := uint64(1)
			// phase per process: 0 = idle (may acquire), 1 = held (may set
			// or release), 2 = set done (must release)
			phase := make([]int, procs)
			for step := 0; step < 20000; step++ {
				k := rng.Intn(procs)
				switch phase[k] {
				case 0:
					got := m.Acquire(k)
					if got.id != st.current {
						t.Fatalf("step %d: Acquire(%d) = %d, want current %d", step, k, got.id, st.current)
					}
					st.held[k] = got.id
					st.holders[got.id]++
					phase[k] = 1
				case 1:
					if rng.Intn(2) == 0 { // set
						p := &payload{id: nextID}
						byID[nextID] = p
						ok := m.Set(k, p)
						wantOK := st.held[k] == st.current
						if ok != wantOK {
							t.Fatalf("step %d: Set(%d) = %v, want %v", step, k, ok, wantOK)
						}
						if ok {
							st.current = nextID
						}
						nextID++
						phase[k] = 2
					} else {
						sequentialRelease(t, step, m, k, &st)
						phase[k] = 0
					}
				case 2:
					sequentialRelease(t, step, m, k, &st)
					phase[k] = 0
				}
			}
		})
	}
}

func sequentialRelease(t *testing.T, step int, m Maintainer[payload], k int, st *modelState) {
	t.Helper()
	v := st.held[k]
	delete(st.held, k)
	st.holders[v]--
	if st.holders[v] == 0 {
		delete(st.holders, v)
	}
	out := m.ReleaseInto(k, nil)
	// Precise spec: return exactly v iff v is dead after this release.
	dead := v != st.current && st.holders[v] == 0 && !st.returned[v]
	if dead {
		if len(out) != 1 || out[0].id != v {
			t.Fatalf("step %d: Release(%d) = %v, want [%d]", step, k, ids(out), v)
		}
		st.returned[v] = true
	} else if len(out) != 0 {
		t.Fatalf("step %d: Release(%d) = %v, want [] (version %d still live)", step, k, ids(out), v)
	}
}

// TestConcurrentSingleWriter is the paper's primary deployment: one writer
// streams updates while P-1 readers acquire, inspect and release.  It
// checks safety (no version is collected while any process holds it),
// exactly-once collection, per-process monotonicity of acquired versions,
// and complete accounting at the end of the run.
func TestConcurrentSingleWriter(t *testing.T) {
	const (
		procs  = 8
		writes = 3000
	)
	for _, name := range allNames {
		t.Run(name, func(t *testing.T) {
			m := newMaintainer(t, name, procs, &payload{id: 0})
			var created atomic.Uint64 // ids handed out; id 0 pre-created
			var collectedCount atomic.Uint64
			collect := func(ps []*payload) {
				for _, p := range ps {
					if !p.collected.CompareAndSwap(false, true) {
						t.Errorf("version %d collected twice", p.id)
					}
					collectedCount.Add(1)
				}
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Writer: process 0.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= writes; i++ {
					v := m.Acquire(0)
					if v.collected.Load() {
						t.Errorf("writer acquired already-collected version %d", v.id)
					}
					p := &payload{id: uint64(i)}
					created.Add(1)
					if !m.Set(0, p) {
						t.Errorf("single-writer Set %d failed", i)
					}
					collect(m.ReleaseInto(0, nil))
				}
				close(stop)
			}()
			// Readers: processes 1..procs-1.
			for k := 1; k < procs; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					last := uint64(0)
					for {
						select {
						case <-stop:
							return
						default:
						}
						v := m.Acquire(k)
						if v.collected.Load() {
							t.Errorf("reader %d acquired collected version %d", k, v.id)
							return
						}
						if v.id < last {
							t.Errorf("reader %d: versions went backwards: %d after %d", k, v.id, last)
							return
						}
						last = v.id
						// Simulate user code that dereferences the version.
						for i := 0; i < 32; i++ {
							if v.collected.Load() {
								t.Errorf("reader %d: version %d collected while held", k, v.id)
								return
							}
						}
						collect(m.ReleaseInto(k, nil))
						// Yield between transactions, never inside one: seven
						// spinning readers on two cores otherwise get
						// preempted mid-read, and a blocking maintainer
						// (rcu's synchronize) then waits out the other
						// readers' time slices on every one of the writes.
						runtime.Gosched()
					}
				}(k)
			}
			wg.Wait()
			collect(m.Drain())
			total := created.Load() + 1 // + initial version
			if collectedCount.Load() != total {
				t.Errorf("created %d versions, collected %d", total, collectedCount.Load())
			}
			if m.Uncollected() != 0 && name != "base" {
				// base reports leaks; others must be empty after Drain.
				t.Errorf("Uncollected = %d after Drain", m.Uncollected())
			}
		})
	}
}

// TestConcurrentMultiWriter exercises the lock-free multi-writer mode: all
// processes contend with Set.  At least one Set in every round of conflicts
// must succeed, every failure must coincide with some success, and
// accounting must balance.
func TestConcurrentMultiWriter(t *testing.T) {
	const (
		procs     = 6
		perWriter = 2000
	)
	for _, name := range allNames {
		t.Run(name, func(t *testing.T) {
			m := newMaintainer(t, name, procs, &payload{id: 0})
			var idGen atomic.Uint64
			var successes, failures atomic.Uint64
			var collectedCount atomic.Uint64
			var created atomic.Uint64
			var wg sync.WaitGroup
			for k := 0; k < procs; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						v := m.Acquire(k)
						if v.collected.Load() {
							t.Errorf("writer %d acquired collected version", k)
							return
						}
						p := &payload{id: idGen.Add(1)}
						if m.Set(k, p) {
							successes.Add(1)
							created.Add(1)
						} else {
							failures.Add(1)
							// The failed version never entered the system;
							// the transaction layer collects it directly.
						}
						for _, f := range m.ReleaseInto(k, nil) {
							if !f.collected.CompareAndSwap(false, true) {
								t.Errorf("version %d collected twice", f.id)
							}
							collectedCount.Add(1)
						}
					}
				}(k)
			}
			wg.Wait()
			if successes.Load() == 0 {
				t.Fatal("no Set ever succeeded")
			}
			for _, f := range m.Drain() {
				if !f.collected.CompareAndSwap(false, true) {
					t.Errorf("version %d collected twice in drain", f.id)
				}
				collectedCount.Add(1)
			}
			if got, want := collectedCount.Load(), created.Load()+1; got != want {
				t.Errorf("collected %d versions, want %d", got, want)
			}
		})
	}
}

// TestUncollectedBounds verifies the per-algorithm bounds on resident
// versions claimed in Section 7.1: RCU ≤ 2 always; PSWF/PSLF ≤ 2P+1 (P
// acquired + P mid-set + current); HP ≤ 2P per process + current.
func TestUncollectedBounds(t *testing.T) {
	const procs = 4
	// This test drives concurrent writers on every process, so the RCU
	// bound is P+1 (each writer may hold one version pending a grace
	// period); the paper's "at most 2 live versions" claim is for the
	// single-writer setting and is checked in TestPreciseSequentialRelease.
	bounds := map[string]int{
		"pswf": 2*procs + 1,
		"pslf": 2*procs + 1,
		"rcu":  procs + 1,
		"hp":   2*procs*procs + 1,
		// SBGC compacts each retired list down to ≤ P entries once it
		// reaches 2P, so at most 2P can be outstanding per process.
		"sbgc": 2*procs*procs + 1,
	}
	for name, bound := range bounds {
		t.Run(name, func(t *testing.T) {
			m := newMaintainer(t, name, procs, &payload{id: 0})
			var wg sync.WaitGroup
			for k := 0; k < procs; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					var id uint64
					for i := 0; i < 3000; i++ {
						m.Acquire(k)
						id++
						m.Set(k, &payload{id: id})
						m.ReleaseInto(k, nil)
						if u := m.Uncollected(); u > bound {
							t.Errorf("%s: Uncollected = %d exceeds bound %d", name, u, bound)
							return
						}
					}
				}(k)
			}
			wg.Wait()
		})
	}
}

// TestStepBoundsAcquire checks Theorem 3.4's O(1) bound: the number of
// shared-memory steps in Acquire is a constant independent of P, even under
// maximal write pressure.
func TestStepBoundsAcquire(t *testing.T) {
	for _, procs := range []int{2, 8, 32, 128} {
		m := NewPSWFInstrumented(procs, &payload{id: 0})
		var maxSteps int64
		// Writer churns versions from process 0; reader on process 1.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var id uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Acquire(0)
				id++
				m.Set(0, &payload{id: id})
				m.ReleaseInto(0, nil)
			}
		}()
		for i := 0; i < 2000; i++ {
			m.Acquire(1)
			if s := m.StepCount(1); s > maxSteps {
				maxSteps = s
			}
			m.ReleaseInto(1, nil)
		}
		close(stop)
		wg.Wait()
		// The instrumented acquire executes at most ~20 shared steps on any
		// path; the bound must not grow with P.
		if maxSteps > 25 {
			t.Errorf("P=%d: acquire took %d shared steps, want O(1) ≤ 25", procs, maxSteps)
		}
	}
}

// TestStepBoundsSetRelease checks Theorem 3.4's O(P) bounds for Set and
// Release: steps grow at most linearly in P with a small constant.
func TestStepBoundsSetRelease(t *testing.T) {
	for _, procs := range []int{2, 8, 32, 128} {
		m := NewPSWFInstrumented(procs, &payload{id: 0})
		var maxSet, maxRel int64
		var id uint64
		for i := 0; i < 500; i++ {
			m.Acquire(0)
			id++
			m.Set(0, &payload{id: id})
			if s := m.StepCount(0); s > maxSet {
				maxSet = s
			}
			m.ReleaseInto(0, nil)
			if s := m.StepCount(0); s > maxRel {
				maxRel = s
			}
		}
		limit := int64(12*procs + 30)
		if maxSet > limit {
			t.Errorf("P=%d: set took %d steps, want O(P) ≤ %d", procs, maxSet, limit)
		}
		if maxRel > limit {
			t.Errorf("P=%d: release took %d steps, want O(P) ≤ %d", procs, maxRel, limit)
		}
	}
}

// TestRCUWriterBlocksOnReader demonstrates RCU's known weakness (and
// precision): the writer's Release cannot finish until pre-existing readers
// leave their critical sections.
func TestRCUWriterBlocksOnReader(t *testing.T) {
	m := NewRCU(2, &payload{id: 0})
	m.Acquire(1) // reader pins version 0

	m.Acquire(0)
	if !m.Set(0, &payload{id: 1}) {
		t.Fatal("Set failed")
	}
	released := make(chan []*payload, 1)
	go func() { released <- m.ReleaseInto(0, nil) }()

	// The writer must not complete while the reader is inside.
	for i := 0; i < 100; i++ {
		select {
		case <-released:
			t.Fatal("RCU writer release completed while a reader held the old version")
		default:
		}
		runtime.Gosched()
	}
	m.ReleaseInto(1, nil) // reader exits; the writer may now finish
	out := <-released
	if len(out) != 1 || out[0].id != 0 {
		t.Fatalf("writer release = %v, want [0]", ids(out))
	}
}

// TestHPReleaseAmortization: HP's expensive Release happens only once the
// retired list reaches 2P, and then frees at least P versions.
func TestHPReleaseAmortization(t *testing.T) {
	const procs = 4
	m := NewHP(procs, &payload{id: 0})
	var id uint64
	emptyReleases := 0
	for i := 0; i < 10*procs; i++ {
		m.Acquire(0)
		id++
		if !m.Set(0, &payload{id: id}) {
			t.Fatal("Set failed")
		}
		out := m.ReleaseInto(0, nil)
		if len(out) == 0 {
			emptyReleases++
			continue
		}
		if len(out) < procs {
			t.Fatalf("expensive HP release returned %d < P versions", len(out))
		}
	}
	if emptyReleases == 0 {
		t.Fatal("HP release was never cheap; amortization broken")
	}
}

// TestHPSteadyStateAllocs: once the retired list has grown to 2P, a round
// of 2P writes — one compacting release among them — allocates nothing.
// Each AllocsPerRun run is a whole round, because its integer division
// would hide one allocation spread over 2P calls.  P = 9 and 17 are past
// the size at which a per-scan map of P entries stops fitting on the stack.
func TestHPSteadyStateAllocs(t *testing.T) {
	for _, procs := range []int{9, 17} {
		const runs = 50
		m := NewHP(procs, &payload{id: 0})
		payloads := make([]payload, (runs+3)*2*procs)
		next := 0
		buf := make([]*payload, 0, 2*procs)
		round := func() {
			for i := 0; i < 2*procs; i++ {
				m.Acquire(0)
				if !m.Set(0, &payloads[next]) {
					t.Fatalf("P=%d: solo Set failed", procs)
				}
				next++
				buf = m.ReleaseInto(0, buf[:0])
			}
		}
		round() // grow the retired list and the release buffer
		if avg := testing.AllocsPerRun(runs, round); avg != 0 {
			t.Errorf("P=%d: a round of %d writes allocates %.2f objects, want 0", procs, 2*procs, avg)
		}
	}
}

// TestEpochAdvanceRequiresQuiescence: a reader pinned to an old epoch
// prevents reclamation (the imprecision the paper measures in Figure 6).
func TestEpochAdvanceRequiresQuiescence(t *testing.T) {
	m := NewEpoch(2, &payload{id: 0})
	m.Acquire(1) // reader enters and never leaves
	var id uint64
	for i := 0; i < 50; i++ {
		m.Acquire(0)
		id++
		if !m.Set(0, &payload{id: id}) {
			t.Fatal("Set failed")
		}
		if out := m.ReleaseInto(0, nil); len(out) != 0 {
			t.Fatalf("epoch release reclaimed %v while a reader is pinned", ids(out))
		}
	}
	if m.Uncollected() < 50 {
		t.Fatalf("expected ≥50 uncollected versions behind a pinned reader, got %d", m.Uncollected())
	}
	m.ReleaseInto(1, nil)
	// After the reader leaves, a few writer cycles flush the backlog down
	// to the 3-epoch window.
	for i := 0; i < 10; i++ {
		m.Acquire(0)
		id++
		m.Set(0, &payload{id: id})
		m.ReleaseInto(0, nil)
	}
	if m.Uncollected() > 10 {
		t.Fatalf("backlog not reclaimed after reader left: %d", m.Uncollected())
	}
}

// TestDrainExactlyOnce: Drain returns every resident version exactly once
// for every algorithm, including versions pinned by never-released readers
// (the processes are quiesced, so this is legal).
func TestDrainExactlyOnce(t *testing.T) {
	for _, name := range allNames {
		t.Run(name, func(t *testing.T) {
			m := newMaintainer(t, name, 3, &payload{id: 0})
			var id uint64
			var collected []uint64
			for i := 0; i < 7; i++ {
				m.Acquire(0)
				id++
				m.Set(0, &payload{id: id})
				for _, f := range m.ReleaseInto(0, nil) {
					collected = append(collected, f.id)
				}
			}
			retained := m.Uncollected()
			drained := m.Drain()
			if retained != len(drained) {
				t.Fatalf("Uncollected = %d before Drain, which returned %d", retained, len(drained))
			}
			for _, f := range drained {
				collected = append(collected, f.id)
			}
			seen := make(map[uint64]bool)
			for _, c := range collected {
				if seen[c] {
					t.Fatalf("version %d returned twice", c)
				}
				seen[c] = true
			}
			if len(seen) != 8 {
				t.Fatalf("returned %d distinct versions, want 8", len(seen))
			}
		})
	}
}

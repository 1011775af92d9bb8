package vm

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestLemmaB13AnnouncementCASes checks Lemma B.13 observationally: in the
// single-writer setting, the announcement array experiences at most 8 CAS
// instructions per Acquire — 3 from the acquire itself, 3 from the one
// helping Set per acquire, 2 from releasers (one per announced version).
// This is the combinatorial core of the O(1) amortized contention bound
// (Theorem 3.5).
func TestLemmaB13AnnouncementCASes(t *testing.T) {
	const procs = 8
	m := NewPSWFInstrumented(procs, &payload{id: 0})
	var acquires atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Single writer churns versions as fast as possible.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var id uint64
		for i := 0; i < 20000; i++ {
			m.Acquire(0)
			acquires.Add(1)
			id++
			if !m.Set(0, &payload{id: id}) {
				t.Error("single-writer Set failed")
			}
			m.ReleaseInto(0, nil)
		}
		close(stop)
	}()
	for k := 1; k < procs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Acquire(k)
				acquires.Add(1)
				m.ReleaseInto(k, nil)
			}
		}(k)
	}
	wg.Wait()
	cas := m.AnnouncementCASCount()
	bound := 8 * acquires.Load()
	if cas > bound {
		t.Fatalf("announcement CASes %d exceed Lemma B.13 bound 8a = %d", cas, bound)
	}
	if cas == 0 {
		t.Fatal("instrumentation recorded no CASes; counter broken")
	}
}

// TestStalledReaderIsHelped is the adversarial schedule that motivates the
// helping mechanism: a reader announces a version and then stalls before
// revalidating; writers must commit a version on its behalf within a
// bounded number of Sets, and the version committed for the stalled
// reader must never be collected under it.
func TestStalledReaderIsHelped(t *testing.T) {
	const procs = 4
	m := NewPSWF(procs, &payload{id: 0})

	// Manually simulate the first half of Acquire(1): read V, announce
	// with the help flag raised, then "stall".
	u := version(m.v.load())
	m.a[1].store(annPack(u, true))

	// The writer now commits versions; its Set's helping loop must lower
	// reader 1's help flag within a bounded number of commits.
	var id uint64
	helped := false
	for i := 0; i < 3 && !helped; i++ {
		m.Acquire(0)
		id++
		if !m.Set(0, &payload{id: id}) {
			t.Fatal("set failed")
		}
		m.ReleaseInto(0, nil)
		helped = !annHelp(m.a[1].load())
	}
	if !helped {
		t.Fatal("stalled reader was not helped within 3 single-writer commits")
	}

	// The reader resumes: whatever was committed for it must be a live,
	// uncollected version with valid data.
	got := m.getData(annVer(m.a[1].load()))
	if got == nil {
		t.Fatal("helped announcement points at no data")
	}
	if got.collected.Load() {
		t.Fatal("helped reader's version was collected while announced")
	}
	// Releasing it must account exactly once, like any other version.
	out := m.ReleaseInto(1, nil)
	for _, f := range out {
		if !f.collected.CompareAndSwap(false, true) {
			t.Fatal("double collection")
		}
	}
	for _, f := range m.Drain() {
		if !f.collected.CompareAndSwap(false, true) {
			t.Fatal("double collection in drain")
		}
	}
}

// TestStalledReaderBlocksCollection: once helped, the stalled reader's
// version must be treated as live — concurrent releases by other processes
// must not return it until the reader releases.
func TestStalledReaderBlocksCollection(t *testing.T) {
	const procs = 4
	m := NewPSWF(procs, &payload{id: 0})
	// Reader 1 fully acquires version 0.
	v0 := m.Acquire(1)
	if v0.id != 0 {
		t.Fatal("unexpected initial version")
	}
	// Writer supersedes it repeatedly; version 0 must never be returned by
	// the writer's releases.
	var id uint64
	for i := 0; i < 10; i++ {
		m.Acquire(0)
		id++
		m.Set(0, &payload{id: id})
		for _, f := range m.ReleaseInto(0, nil) {
			if f.id == 0 {
				t.Fatal("version 0 collected while reader 1 holds it")
			}
		}
	}
	out := m.ReleaseInto(1, nil)
	if len(out) != 1 || out[0].id != 0 {
		t.Fatalf("reader's release returned %v, want [0]", ids(out))
	}
}

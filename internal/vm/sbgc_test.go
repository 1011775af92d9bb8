package vm

import "testing"

// TestSBGCCompactionKeepsPinnedInterval pins down the interval-keep rule:
// under a pinned reader, a compacting Release returns every retired version
// EXCEPT the one whose lifetime interval contains the reader's announced
// timestamp — including the intermediate versions the reader skipped over,
// which HP-style exact-pointer protection would also free but epoch-based
// schemes strand.  procs = 4, so the compaction threshold is 2P = 8.
func TestSBGCCompactionKeepsPinnedInterval(t *testing.T) {
	m := NewSBGC(4, &payload{id: 0})
	var id uint64
	write := func() []*payload {
		m.Acquire(0)
		id++
		if !m.Set(0, &payload{id: id}) {
			t.Fatalf("solo Set %d failed", id)
		}
		return m.ReleaseInto(0, nil)
	}

	// v1..v3; the reader pins v3.
	for i := 0; i < 3; i++ {
		if out := write(); len(out) != 0 {
			t.Fatalf("early release returned %v before the threshold", ids(out))
		}
	}
	pinned := m.Acquire(1)
	if pinned.id != 3 {
		t.Fatalf("reader pinned id %d, want 3", pinned.id)
	}

	// v4..v7 stay under the threshold; the 8th Set (v8) retires the 8th
	// version and its Release compacts against the reader's announcement.
	for i := 0; i < 4; i++ {
		if out := write(); len(out) != 0 {
			t.Fatalf("early release returned %v before the threshold", ids(out))
		}
	}
	freed := write()
	want := map[uint64]bool{0: true, 1: true, 2: true, 4: true, 5: true, 6: true, 7: true}
	if len(freed) != len(want) {
		t.Fatalf("compacting release returned %v, want exactly {0,1,2,4,5,6,7}", ids(freed))
	}
	for _, f := range freed {
		if !want[f.id] {
			t.Fatalf("compaction freed version %d (reader pinned 3)", f.id)
		}
		if f.id == pinned.id {
			t.Fatal("compaction freed the pinned version")
		}
	}
	// Survivors: the pinned v3 and the current v8.
	if got := m.Uncollected(); got != 2 {
		t.Fatalf("Uncollected = %d after compaction, want 2 (pinned + current)", got)
	}
	if pinned.id != 3 {
		t.Fatal("pinned version mutated under compaction")
	}

	// Once the reader leaves, the next compaction collects v3 too.
	m.ReleaseInto(1, nil)
	var later []*payload
	for len(later) == 0 {
		later = append(later, write()...)
	}
	sawPinned := false
	for _, f := range later {
		if f.id == 3 {
			sawPinned = true
		}
	}
	if !sawPinned {
		t.Fatalf("post-release compaction %v never returned the unpinned v3", ids(later))
	}

	// Full accounting: everything created comes back exactly once.
	seen := map[uint64]bool{}
	for _, f := range freed {
		seen[f.id] = true
	}
	for _, f := range later {
		if seen[f.id] {
			t.Fatalf("version %d returned twice", f.id)
		}
		seen[f.id] = true
	}
	for _, f := range m.Drain() {
		if seen[f.id] {
			t.Fatalf("version %d returned twice in drain", f.id)
		}
		seen[f.id] = true
	}
	if len(seen) != int(id)+1 {
		t.Fatalf("returned %d distinct versions, want %d", len(seen), id+1)
	}
}

// TestSBGCTwoPinsTwoSurvivors: two readers pinned to different intervals
// each protect exactly their own version; everything between and around
// them is compacted away.
func TestSBGCTwoPinsTwoSurvivors(t *testing.T) {
	m := NewSBGC(4, &payload{id: 0})
	var id uint64
	write := func() []*payload {
		m.Acquire(0)
		id++
		if !m.Set(0, &payload{id: id}) {
			t.Fatalf("solo Set %d failed", id)
		}
		return m.ReleaseInto(0, nil)
	}

	write() // v1
	a := m.Acquire(1)
	if a.id != 1 {
		t.Fatalf("reader 1 pinned %d, want 1", a.id)
	}
	write() // v2
	write() // v3
	write() // v4
	b := m.Acquire(2)
	if b.id != 4 {
		t.Fatalf("reader 2 pinned %d, want 4", b.id)
	}
	for i := 0; i < 3; i++ {
		write() // v5..v7
	}
	freed := write() // v8: retired list hits 2P = 8, compacts
	want := map[uint64]bool{0: true, 2: true, 3: true, 5: true, 6: true, 7: true}
	if len(freed) != len(want) {
		t.Fatalf("compacting release returned %v, want exactly {0,2,3,5,6,7}", ids(freed))
	}
	for _, f := range freed {
		if !want[f.id] {
			t.Fatalf("compaction freed version %d with pins on 1 and 4", f.id)
		}
	}
	if got := m.Uncollected(); got != 3 {
		t.Fatalf("Uncollected = %d, want 3 (two pins + current)", got)
	}
	m.ReleaseInto(1, nil)
	m.ReleaseInto(2, nil)
}

// TestSBGCSteadyStateAllocs: once the wrapper pool and scratch buffers are
// warm, a full acquire/set/release cycle allocates only the caller's
// payload — the compaction slow path reuses the announcement scratch, the
// retired list and the node pool in place.
func TestSBGCSteadyStateAllocs(t *testing.T) {
	m := NewSBGC(2, &payload{id: 0})
	var id uint64
	cycle := func() {
		m.Acquire(0)
		id++
		if !m.Set(0, &payload{id: id}) {
			t.Fatalf("solo Set %d failed", id)
		}
		m.ReleaseInto(0, nil)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the pool past the first few compactions
	}
	avg := testing.AllocsPerRun(500, cycle)
	if avg > 1.1 {
		t.Errorf("steady-state cycle allocates %.2f objects/op, want only the payload (1)", avg)
	}
}

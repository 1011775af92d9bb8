package core

import (
	"sync"
	"testing"

	"mvgc/internal/ftree"
	"mvgc/internal/vm"
)

func arenaMap(t *testing.T, procs int) *Map[int64, int64, int64] {
	t.Helper()
	ops := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	m, err := NewMap(Config{Algorithm: "pswf", Procs: procs}, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ops.Recycle {
		t.Fatal("NewMap no longer turns recycling on by default")
	}
	return m
}

// TestArenaPidChurn: releasing a pid and re-leasing it must find the
// magazine still warm — the arena belongs to the pid, not the handle — so
// steady-state churn through Handle/Close performs zero fresh chunk carves
// after warmup.
func TestArenaPidChurn(t *testing.T) {
	m := arenaMap(t, 1) // one pid: every lease is the same arena
	defer m.Close()
	warm := func() (refills, spills, carves int64) {
		h := m.Handle()
		defer h.Close()
		for i := int64(0); i < 2000; i++ {
			h.Update(func(tx *Txn[int64, int64, int64]) { tx.Insert(i%64, i) })
		}
		return h.ArenaStats()
	}
	warm()
	_, _, carvesAfterWarm := warm()
	// Many further lease → use → release cycles: all magazine hits.
	for round := 0; round < 50; round++ {
		h := m.Handle()
		for i := int64(0); i < 100; i++ {
			h.Update(func(tx *Txn[int64, int64, int64]) { tx.Insert(i%64, i) })
		}
		_, _, carves := h.ArenaStats()
		if carves != carvesAfterWarm {
			t.Fatalf("round %d: re-leased pid carved fresh chunks (%d → %d); magazine did not survive the lease churn",
				round, carvesAfterWarm, carves)
		}
		h.Close()
	}
}

// TestArenaLiveExactAtQuiescence: every pid counts the units it allocates
// and frees in its own arena's tally, with plain adds.  After P goroutines
// have each written through With on whatever pid they leased — under -race,
// which sees any tally written from two goroutines without the lease between
// them — Live() must equal the node count reachable from the versions the
// maintainer retains with no call made to gather the tallies, and zero after
// Close: magazine-parked nodes are free, not live.  For every maintainer.
func TestArenaLiveExactAtQuiescence(t *testing.T) {
	for _, alg := range vm.Names() {
		ops := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
		m, err := NewMap(Config{Algorithm: alg, Procs: 4}, ops, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := int64(0); i < 3000; i++ {
					k := int64(w)*1000 + i%200
					m.With(func(h *Handle[int64, int64, int64]) {
						if i%5 == 4 {
							h.Update(func(tx *Txn[int64, int64, int64]) { tx.Delete(k) })
						} else {
							h.Update(func(tx *Txn[int64, int64, int64]) { tx.Insert(k, i) })
						}
					})
				}
			}(w)
		}
		wg.Wait()
		// Quiescent: exactly what the maintainer still holds — the current
		// version and whatever it had not handed back yet — is live.
		roots := m.m.Drain()
		if live, reach := ops.Live(), ops.ReachableNodes(roots...); live != reach {
			t.Errorf("%s: quiescent: live %d ≠ reachable %d from %d versions", alg, live, reach, len(roots))
		}
		for _, r := range roots {
			ops.Release(r)
		}
		m.Close()
		if live := ops.Live(); live != 0 {
			t.Fatalf("%s: leaked %d nodes after Close", alg, live)
		}
	}
}

// TestArenaConcurrentHandles runs scoped and held handles from many
// goroutines under -race: pid exclusivity must keep every arena
// single-owner (the race detector sees any violation), and accounting must
// come back to zero.
func TestArenaConcurrentHandles(t *testing.T) {
	m := arenaMap(t, 6)
	ops := m.Ops()
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 500; i++ {
				k := int64(w)*100 + i%97
				if w%2 == 0 {
					h := m.Handle()
					h.Update(func(tx *Txn[int64, int64, int64]) { tx.Insert(k, i) })
					h.Close()
				} else {
					m.With(func(h *Handle[int64, int64, int64]) {
						h.Update(func(tx *Txn[int64, int64, int64]) { tx.Insert(k, i) })
						h.Read(func(s Snapshot[int64, int64, int64]) {
							if v, ok := s.Get(k); !ok || v != i {
								t.Errorf("lost own write: key %d got (%d,%v) want %d", k, v, ok, i)
							}
						})
					})
				}
			}
		}(w)
	}
	wg.Wait()
	m.Close()
	if live := ops.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestNoRecycleAblation: Config.NoRecycle must really turn the allocator
// off — no node ever parks, every path still correct and exact.
func TestNoRecycleAblation(t *testing.T) {
	ops := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	m, err := NewMap(Config{Procs: 2, NoRecycle: true}, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ops.Recycle {
		t.Fatal("NoRecycle did not disable recycling")
	}
	h := m.Handle()
	for i := int64(0); i < 1000; i++ {
		h.Update(func(tx *Txn[int64, int64, int64]) { tx.Insert(i%50, i) })
	}
	refills, spills, carves := h.ArenaStats()
	if refills != 0 || spills != 0 || carves != 0 {
		t.Fatalf("arena moved with recycling off: refills=%d spills=%d carves=%d", refills, spills, carves)
	}
	h.Close()
	m.Close()
	if live := ops.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

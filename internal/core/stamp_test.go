package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"mvgc/internal/ftree"
)

func newStampMap(t *testing.T, stamp *atomic.Uint64, procs int) *Map[int64, int64, struct{}] {
	t.Helper()
	ops := ftree.New[int64, int64, struct{}](ftree.IntCmp[int64], ftree.NoAug[int64, int64](), 0)
	m, err := NewMap(Config{Procs: procs, Stamp: stamp}, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStampAdvancesPerCommit: every stamped commit allocates a fresh GSN
// and publishes it; reads and no-op writes do not.
func TestStampAdvancesPerCommit(t *testing.T) {
	m := newStampMap(t, nil, 2)
	defer m.Close()
	if g := m.LatestStamp(); g != 0 {
		t.Fatalf("fresh map LatestStamp = %d, want 0", g)
	}
	m.With(func(h *Handle[int64, int64, struct{}]) {
		h.Read(func(s Snapshot[int64, int64, struct{}]) {})
		h.Update(func(tx *Txn[int64, int64, struct{}]) {}) // no-op: nothing published
	})
	if g := m.LatestStamp(); g != 0 {
		t.Fatalf("LatestStamp after read + no-op write = %d, want 0", g)
	}
	for i := int64(1); i <= 5; i++ {
		m.With(func(h *Handle[int64, int64, struct{}]) {
			h.Update(func(tx *Txn[int64, int64, struct{}]) { tx.Insert(i, i) })
		})
		if g := m.LatestStamp(); g != uint64(i) {
			t.Fatalf("LatestStamp after commit %d = %d", i, g)
		}
	}
}

// TestStampSharedSource: maps sharing one counter stamp their commits in
// one global order — every commit gets a distinct GSN and each map's
// LatestStamp is the max it committed.
func TestStampSharedSource(t *testing.T) {
	var src atomic.Uint64
	m1 := newStampMap(t, &src, 4)
	m2 := newStampMap(t, &src, 4)
	defer m1.Close()
	defer m2.Close()
	if m1.StampSource() != &src || m2.StampSource() != &src {
		t.Fatal("StampSource does not expose the shared counter")
	}
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := m1
			if w%2 == 1 {
				m = m2
			}
			for i := 0; i < per; i++ {
				k := int64(w*per + i)
				m.With(func(h *Handle[int64, int64, struct{}]) {
					h.Update(func(tx *Txn[int64, int64, struct{}]) { tx.Insert(k, k) })
				})
			}
		}(w)
	}
	wg.Wait()
	if total := src.Load(); total != 4*per {
		t.Fatalf("shared counter = %d, want %d", total, 4*per)
	}
	if g1, g2 := m1.LatestStamp(), m2.LatestStamp(); g1 == 0 || g2 == 0 || g1 == g2 {
		t.Fatalf("per-map latest stamps = %d, %d: want distinct non-zero maxima", g1, g2)
	}
}

// TestUnstampedInstallProtocol walks the atomic-install primitives: an
// unstamped commit publishes its root without moving LatestStamp, BumpStamp
// is a CAS-max, and the install seqlock toggles odd/even around the window.
func TestUnstampedInstallProtocol(t *testing.T) {
	m := newStampMap(t, nil, 2)
	defer m.Close()
	m.With(func(h *Handle[int64, int64, struct{}]) {
		h.Update(func(tx *Txn[int64, int64, struct{}]) { tx.Insert(1, 1) })
	})
	base := m.LatestStamp()
	if q := m.InstallSeq(); q != 0 {
		t.Fatalf("fresh InstallSeq = %d, want 0", q)
	}
	m.LockWriterSlot()
	m.BeginInstall()
	if q := m.InstallSeq(); q&1 != 1 {
		t.Fatalf("InstallSeq during install = %d, want odd", q)
	}
	m.With(func(h *Handle[int64, int64, struct{}]) {
		h.UpdateUnstamped(func(tx *Txn[int64, int64, struct{}]) { tx.Insert(2, 2) })
	})
	if g := m.LatestStamp(); g != base {
		t.Fatalf("unstamped commit moved LatestStamp %d → %d", base, g)
	}
	g := m.StampSource().Add(1)
	m.BumpStamp(g)
	if got := m.LatestStamp(); got != g {
		t.Fatalf("LatestStamp after BumpStamp(%d) = %d", g, got)
	}
	m.BumpStamp(g - 1) // CAS-max: smaller stamps never regress the word
	if got := m.LatestStamp(); got != g {
		t.Fatalf("BumpStamp(%d) regressed LatestStamp to %d", g-1, got)
	}
	m.EndInstall()
	m.UnlockWriterSlot()
	if q := m.InstallSeq(); q&1 != 0 || q == 0 {
		t.Fatalf("InstallSeq after install = %d, want non-zero even", q)
	}
	if v, ok := m.get(2); !ok || v != 2 {
		t.Fatalf("unstamped commit lost: Get(2) = %d,%v", v, ok)
	}
}

// TestInstallAtomic: the install publishes its roots under one fresh stamp,
// returns it, and leaves the seqlock even; an empty footprint installs
// nothing, returns 0 and leaves the seqlock where it was.
func TestInstallAtomic(t *testing.T) {
	var src atomic.Uint64
	maps := []*Map[int64, int64, struct{}]{newStampMap(t, &src, 2), newStampMap(t, &src, 2)}
	for _, m := range maps {
		defer m.Close()
	}
	all := []int{0, 1}
	LockWriterSlots(maps, all)
	gsn := InstallAtomic(maps, all, func() {
		for i, m := range maps {
			m.With(func(h *Handle[int64, int64, struct{}]) {
				h.UpdateUnstamped(func(tx *Txn[int64, int64, struct{}]) { tx.Insert(int64(i), 1) })
			})
		}
	})
	UnlockWriterSlots(maps, all)
	if gsn == 0 || src.Load() != gsn {
		t.Fatalf("InstallAtomic returned %d, stamp source at %d", gsn, src.Load())
	}
	for i, m := range maps {
		if g := m.LatestStamp(); g != gsn {
			t.Fatalf("map %d published stamp %d, want %d", i, g, gsn)
		}
		if q := m.InstallSeq(); q != 2 {
			t.Fatalf("map %d InstallSeq = %d after one install, want 2", i, q)
		}
		if v, ok := m.get(int64(i)); !ok || v != 1 {
			t.Fatalf("map %d lost its leg: Get = %d,%v", i, v, ok)
		}
	}
	if g := InstallAtomic(maps, nil, func() { t.Fatal("empty footprint ran commitAll") }); g != 0 {
		t.Fatalf("empty footprint returned stamp %d", g)
	}
	if q := maps[0].InstallSeq(); q != 2 {
		t.Fatalf("empty footprint moved the seqlock to %d", q)
	}
}

// get is a test convenience point read.
func (m *Map[K, V, A]) get(k K) (v V, ok bool) {
	m.With(func(h *Handle[K, V, A]) {
		h.Read(func(s Snapshot[K, V, A]) { v, ok = s.Get(k) })
	})
	return
}

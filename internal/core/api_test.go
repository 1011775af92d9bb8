package core_test

import (
	"sync"
	"testing"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// TestPublicAPI exercises the map exactly as examples/quickstart does.
func TestPublicAPI(t *testing.T) {
	ops := ftree.New(ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: 2}, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Update(0, func(tx *core.Txn[int64, int64, int64]) {
		for i := int64(1); i <= 10; i++ {
			tx.Insert(i, i*i)
		}
	})
	m.Read(1, func(s core.Snapshot[int64, int64, int64]) {
		if got := s.AugRange(1, 10); got != 385 {
			t.Fatalf("Σ k² = %d, want 385", got)
		}
	})
	m.Close()
	if ops.Live() != 0 {
		t.Fatalf("leaked %d nodes", ops.Live())
	}
}

// TestPublicAPIInitialEntries checks the initial-version path and default
// algorithm selection.
func TestPublicAPIInitialEntries(t *testing.T) {
	ops := ftree.New(ftree.IntCmp[uint64], ftree.NoAug[uint64, string](), 0)
	m, err := core.NewMap(core.Config{Procs: 1}, ops, []ftree.Entry[uint64, string]{
		{Key: 1, Val: "one"}, {Key: 2, Val: "two"}, {Key: 1, Val: "uno"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Algorithm() != "pswf" {
		t.Fatalf("default algorithm = %q", m.Algorithm())
	}
	m.Read(0, func(s core.Snapshot[uint64, string, struct{}]) {
		if v, _ := s.Get(1); v != "uno" {
			t.Fatalf("later duplicate should win: %q", v)
		}
		if s.Len() != 2 {
			t.Fatalf("Len = %d", s.Len())
		}
	})
	m.Close()
}

// TestPublicAPIConcurrent is a compact end-to-end: a writer and readers on
// the exported surface only.
func TestPublicAPIConcurrent(t *testing.T) {
	ops := ftree.New(ftree.IntCmp[int64], ftree.MaxAug[int64](), 0)
	m, err := core.NewMap(core.Config{Procs: 4}, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 2000; i++ {
			m.Update(0, func(tx *core.Txn[int64, int64, int64]) { tx.Insert(i%100, i) })
		}
		close(stop)
	}()
	for p := 1; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Read(p, func(s core.Snapshot[int64, int64, int64]) {
					if s.Len() > 100 {
						t.Errorf("more keys than possible: %d", s.Len())
					}
					_ = s.AugRange(0, 99)
				})
			}
		}(p)
	}
	wg.Wait()
	m.Close()
	if ops.Live() != 0 {
		t.Fatalf("leaked %d nodes", ops.Live())
	}
}

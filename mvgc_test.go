package mvgc

import (
	"sync"
	"testing"
)

// TestPublicAPI exercises the root package exactly as README's quickstart
// does.
func TestPublicAPI(t *testing.T) {
	ops := NewOps(IntCmp[int64], SumAug[int64](), 0)
	m, err := NewMap(Config{Algorithm: "pswf", Procs: 2}, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Update(0, func(tx *Txn[int64, int64, int64]) {
		for i := int64(1); i <= 10; i++ {
			tx.Insert(i, i*i)
		}
	})
	m.Read(1, func(s Snapshot[int64, int64, int64]) {
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
	ops := NewOps(IntCmp[uint64], NoAug[uint64, string](), 0)
	m, err := NewMap(Config{Procs: 1}, ops, []Entry[uint64, string]{
		{Key: 1, Val: "one"}, {Key: 2, Val: "two"}, {Key: 1, Val: "uno"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Algorithm() != "pswf" {
		t.Fatalf("default algorithm = %q", m.Algorithm())
	}
	m.Read(0, func(s Snapshot[uint64, string, struct{}]) {
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
	ops := NewOps(IntCmp[int64], MaxAug[int64](), 0)
	m, err := NewMap(Config{Procs: 4}, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 2000; i++ {
			m.Update(0, func(tx *Txn[int64, int64, int64]) { tx.Insert(i%100, i) })
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
				m.Read(p, func(s Snapshot[int64, int64, int64]) {
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

// checkAutoCmp orders lo < hi with autoCmp's comparator for K and pins that
// a comparison allocates nothing: the comparator is the function itself,
// not a closure boxing both keys.
func checkAutoCmp[K any](t *testing.T, lo, hi K) {
	t.Helper()
	cmp, ok := autoCmp[K]()
	if !ok {
		t.Fatalf("%T: no default ordering", lo)
	}
	if cmp(lo, hi) >= 0 || cmp(hi, lo) <= 0 || cmp(lo, lo) != 0 || cmp(hi, hi) != 0 {
		t.Fatalf("%T: cmp(lo,hi)=%d cmp(hi,lo)=%d cmp(lo,lo)=%d", lo, cmp(lo, hi), cmp(hi, lo), cmp(lo, lo))
	}
	sink := 0
	if allocs := testing.AllocsPerRun(100, func() { sink += cmp(lo, hi) + cmp(hi, lo) }); allocs != 0 {
		t.Fatalf("%T: %.1f allocs per comparison pair", lo, allocs)
	}
}

// TestAutoCmp covers the seven key types with a default ordering, each
// across its sign or length boundary.
func TestAutoCmp(t *testing.T) {
	checkAutoCmp[int](t, -3, 2)
	checkAutoCmp[int32](t, -1<<31, 1<<31-1)
	checkAutoCmp[int64](t, -1<<63, 1<<63-1)
	checkAutoCmp[uint](t, 1, 1<<63)
	checkAutoCmp[uint32](t, 0, 1<<32-1)
	checkAutoCmp[uint64](t, 1<<63-1, 1<<63)
	checkAutoCmp[string](t, "ab", "abc")
	if _, ok := autoCmp[float64](); ok {
		t.Fatal("float64 has no default ordering")
	}
}

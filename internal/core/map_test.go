package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mvgc/internal/ftree"
	"mvgc/internal/vm"
)

func newIntMap(t testing.TB, alg string, procs int, initial []ftree.Entry[int64, int64]) *Map[int64, int64, int64] {
	t.Helper()
	ops := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	m, err := NewMap(Config{Algorithm: alg, Procs: procs}, ops, initial)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMapErrors(t *testing.T) {
	ops := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	if _, err := NewMap(Config{Algorithm: "bogus", Procs: 2}, ops, nil); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	if ops.Live() != 0 {
		t.Fatalf("failed construction leaked %d nodes", ops.Live())
	}
	if _, err := NewMap(Config{Procs: 0}, ops, nil); err == nil {
		t.Fatal("expected error for zero procs")
	}
}

func TestBasicReadUpdate(t *testing.T) {
	for _, alg := range vm.Names() {
		t.Run(alg, func(t *testing.T) {
			m := newIntMap(t, alg, 2, []ftree.Entry[int64, int64]{{Key: 1, Val: 10}, {Key: 2, Val: 20}})
			m.Read(0, func(s Snapshot[int64, int64, int64]) {
				if v, ok := s.Get(1); !ok || v != 10 {
					t.Errorf("Get(1) = %d,%v", v, ok)
				}
				if s.Len() != 2 {
					t.Errorf("Len = %d", s.Len())
				}
				if got := s.AugRange(0, 100); got != 30 {
					t.Errorf("AugRange = %d", got)
				}
			})
			m.Update(0, func(tx *Txn[int64, int64, int64]) {
				tx.Insert(3, 30)
				tx.Delete(1)
			})
			m.Read(1, func(s Snapshot[int64, int64, int64]) {
				if s.Has(1) {
					t.Error("deleted key still present")
				}
				if v, _ := s.Get(3); v != 30 {
					t.Errorf("Get(3) = %d", v)
				}
			})
			m.Close()
			if m.Ops().Live() != 0 {
				t.Errorf("leaked %d nodes after Close", m.Ops().Live())
			}
		})
	}
}

func TestUpdateAtomicity(t *testing.T) {
	m := newIntMap(t, "pswf", 2, nil)
	m.Update(0, func(tx *Txn[int64, int64, int64]) {
		tx.Insert(1, 1)
		if v, ok := tx.Get(1); !ok || v != 1 {
			t.Error("transaction cannot read its own write")
		}
		tx.Insert(1, 2) // overwrite within the transaction
		tx.InsertWith(1, 5, func(old, new int64) int64 { return old + new })
	})
	m.Read(0, func(s Snapshot[int64, int64, int64]) {
		if v, _ := s.Get(1); v != 7 {
			t.Errorf("Get(1) = %d, want 7", v)
		}
	})
	m.Close()
}

func TestNoOpUpdate(t *testing.T) {
	for _, alg := range vm.Names() {
		t.Run(alg, func(t *testing.T) {
			m := newIntMap(t, alg, 1, []ftree.Entry[int64, int64]{{Key: 1, Val: 1}})
			// A transaction that deletes an absent key ends at the acquired
			// root; publishing it would retire the current version while it
			// stays current.
			for i := 0; i < 5; i++ {
				m.Update(0, func(tx *Txn[int64, int64, int64]) { tx.Delete(99) })
			}
			// Pure read-only "update".
			m.Update(0, func(tx *Txn[int64, int64, int64]) { tx.Get(1) })
			m.Read(0, func(s Snapshot[int64, int64, int64]) {
				if s.Len() != 1 {
					t.Errorf("Len = %d", s.Len())
				}
			})
			if m.Commits() != 0 {
				t.Errorf("no-op updates recorded %d commits", m.Commits())
			}
			m.Close()
			if m.Ops().Live() != 0 {
				t.Errorf("leaked %d nodes", m.Ops().Live())
			}
		})
	}
}

func TestBatchUpdate(t *testing.T) {
	m := newIntMap(t, "pswf", 2, nil)
	batch := make([]ftree.Entry[int64, int64], 1000)
	for i := range batch {
		batch[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: int64(i) * 2}
	}
	m.Update(0, func(tx *Txn[int64, int64, int64]) { tx.InsertBatch(batch, nil) })
	m.Read(1, func(s Snapshot[int64, int64, int64]) {
		if s.Len() != 1000 {
			t.Fatalf("Len = %d", s.Len())
		}
		if got := s.AugRange(0, 999); got != 999*1000 {
			t.Fatalf("sum = %d", got)
		}
	})
	var keys []int64
	for i := int64(0); i < 500; i++ {
		keys = append(keys, i*2)
	}
	m.Update(0, func(tx *Txn[int64, int64, int64]) { tx.DeleteBatch(keys) })
	m.Read(1, func(s Snapshot[int64, int64, int64]) {
		if s.Len() != 500 {
			t.Fatalf("Len after batch delete = %d", s.Len())
		}
	})
	m.Close()
	if m.Ops().Live() != 0 {
		t.Errorf("leaked %d nodes", m.Ops().Live())
	}
}

// TestStrictSerializabilitySingleWriter is the Theorem 5.1 check in the
// paper's primary deployment.  The writer commits counter increments that
// keep a derived invariant (key 0 holds the sum of keys 1..8); every read
// snapshot must satisfy the invariant and observe a monotonically
// non-decreasing commit sequence number.
func TestStrictSerializabilitySingleWriter(t *testing.T) {
	const procs = 6
	commits := 2000
	if testing.Short() {
		commits = 200 // the full run starves the writer on small CI hosts
	}
	for _, alg := range vm.Names() {
		t.Run(alg, func(t *testing.T) {
			var initial []ftree.Entry[int64, int64]
			for k := int64(0); k <= 8; k++ {
				initial = append(initial, ftree.Entry[int64, int64]{Key: k, Val: 0})
			}
			m := newIntMap(t, alg, procs, initial)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // writer: process 0
				defer wg.Done()
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < commits; i++ {
					k := int64(1 + rng.Intn(8))
					m.Update(0, func(tx *Txn[int64, int64, int64]) {
						v, _ := tx.Get(k)
						tx.Insert(k, v+1)
						sum, _ := tx.Get(0)
						tx.Insert(0, sum+1)
					})
				}
				close(stop)
			}()
			for p := 1; p < procs; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					var lastSum int64 = -1
					for {
						select {
						case <-stop:
							return
						default:
						}
						m.Read(p, func(s Snapshot[int64, int64, int64]) {
							sum, _ := s.Get(0)
							var total int64
							for k := int64(1); k <= 8; k++ {
								v, _ := s.Get(k)
								total += v
							}
							if total != sum {
								t.Errorf("torn snapshot: sum key=%d, computed=%d", sum, total)
							}
							if sum < lastSum {
								t.Errorf("snapshots went backwards: %d after %d", sum, lastSum)
							}
							lastSum = sum
						})
						// Yield between read transactions: on a 1-core host,
						// spinning readers otherwise starve the rcu writer's
						// synchronize down to one grace period per ~100ms of
						// async preemptions, timing the test out.
						runtime.Gosched()
					}
				}(p)
			}
			wg.Wait()
			m.Close()
			if m.Ops().Live() != 0 {
				t.Errorf("leaked %d nodes", m.Ops().Live())
			}
		})
	}
}

// TestMultiWriterCounter: concurrent writers increment a shared counter
// through retrying transactions; lock-freedom plus conflict detection means
// the final value equals the number of commits, with no lost updates.
func TestMultiWriterCounter(t *testing.T) {
	const procs, perProc = 4, 500
	for _, alg := range []string{"pswf", "pslf", "hp", "epoch", "base"} {
		t.Run(alg, func(t *testing.T) {
			m := newIntMap(t, alg, procs, []ftree.Entry[int64, int64]{{Key: 0, Val: 0}})
			var wg sync.WaitGroup
			for p := 0; p < procs; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perProc; i++ {
						m.Update(p, func(tx *Txn[int64, int64, int64]) {
							v, _ := tx.Get(0)
							tx.Insert(0, v+1)
						})
					}
				}(p)
			}
			wg.Wait()
			var final int64
			m.Read(0, func(s Snapshot[int64, int64, int64]) { final, _ = s.Get(0) })
			if final != procs*perProc {
				t.Errorf("final counter = %d, want %d (lost updates)", final, procs*perProc)
			}
			if m.Commits() != procs*perProc {
				t.Errorf("commits = %d", m.Commits())
			}
			m.Close()
			if m.Ops().Live() != 0 {
				t.Errorf("leaked %d nodes", m.Ops().Live())
			}
		})
	}
}

// TestTryUpdateAbort: TryUpdate must abort rather than retry, and an abort
// implies a concurrent commit happened.
func TestTryUpdateAbort(t *testing.T) {
	m := newIntMap(t, "pswf", 4, []ftree.Entry[int64, int64]{{Key: 0, Val: 0}})
	var committed, aborted atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				ok := m.TryUpdate(p, func(tx *Txn[int64, int64, int64]) {
					v, _ := tx.Get(0)
					tx.Insert(0, v+1)
				}, nil)
				if ok {
					committed.Add(1)
				} else {
					aborted.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	var final int64
	m.Read(0, func(s Snapshot[int64, int64, int64]) { final, _ = s.Get(0) })
	if final != committed.Load() {
		t.Errorf("final = %d, commits = %d", final, committed.Load())
	}
	if aborted.Load() != m.Aborts() {
		t.Errorf("abort accounting: %d vs %d", aborted.Load(), m.Aborts())
	}
	m.Close()
	if m.Ops().Live() != 0 {
		t.Errorf("leaked %d nodes", m.Ops().Live())
	}
}

// TestPreciseGCEndToEnd runs the full system hard for a while, then closes
// it and checks the precise-GC end state: zero live nodes.  It also checks
// that with the precise PSWF algorithm the version population stays within
// its 2P+1 bound during the run (safety of Theorem 5.3's "as soon as"
// claim is covered by ftree's poisoned refcounts, which would panic on any
// premature collection).
func TestPreciseGCEndToEnd(t *testing.T) {
	const procs = 8
	m := newIntMap(t, "pswf", procs, nil)
	m.TrackVersions = true
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 1500; i++ {
			batch := make([]ftree.Entry[int64, int64], 20)
			for j := range batch {
				batch[j] = ftree.Entry[int64, int64]{Key: rng.Int63n(5000), Val: rng.Int63n(100)}
			}
			m.Update(0, func(tx *Txn[int64, int64, int64]) { tx.InsertBatch(batch, nil) })
		}
		close(stop)
	}()
	for p := 1; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := rng.Int63n(5000)
				m.Read(p, func(s Snapshot[int64, int64, int64]) {
					_ = s.AugRange(lo, lo+100)
				})
			}
		}(p)
	}
	wg.Wait()
	if mv := m.MaxVersions(); mv > 2*procs+1 {
		t.Errorf("peak versions %d exceeds PSWF bound %d", mv, 2*procs+1)
	}
	m.Close()
	if m.Ops().Live() != 0 {
		t.Errorf("leaked %d nodes after Close", m.Ops().Live())
	}
}

// TestSnapshotStability: a long-running read transaction sees a frozen
// view regardless of concurrent commits.
func TestSnapshotStability(t *testing.T) {
	m := newIntMap(t, "pswf", 2, nil)
	batch := make([]ftree.Entry[int64, int64], 1000)
	for i := range batch {
		batch[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: 1}
	}
	m.Update(0, func(tx *Txn[int64, int64, int64]) { tx.InsertBatch(batch, nil) })

	started := make(chan struct{})
	writerDone := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		m.Read(1, func(s Snapshot[int64, int64, int64]) {
			close(started)
			<-writerDone // hold the snapshot across many commits
			if got := s.AugRange(0, 999); got != 1000 {
				t.Errorf("pinned snapshot sum = %d, want 1000", got)
			}
			if s.Len() != 1000 {
				t.Errorf("pinned snapshot len = %d", s.Len())
			}
		})
	}()
	<-started
	for i := 0; i < 200; i++ {
		m.Update(0, func(tx *Txn[int64, int64, int64]) {
			tx.Insert(int64(i), 100)
			tx.Delete(int64(999 - i))
		})
	}
	close(writerDone)
	<-readerDone
	m.Close()
	if m.Ops().Live() != 0 {
		t.Errorf("leaked %d nodes", m.Ops().Live())
	}
}

func TestClosedMapIdempotent(t *testing.T) {
	m := newIntMap(t, "pswf", 1, nil)
	m.Close()
	m.Close() // second close must be a no-op
}

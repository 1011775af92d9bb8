package shard

import (
	"sync"
	"testing"
	"time"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/vm"
	"mvgc/internal/ycsb"
)

func newSharded(t testing.TB, alg string, shards, procs int, initial []ftree.Entry[int64, int64]) *Map[int64, int64, int64] {
	t.Helper()
	m, err := New(
		Config[int64]{Shards: shards, Procs: procs, Algorithm: alg, Hash: func(k int64) uint64 { return ycsb.Mix64(uint64(k)) }},
		func() *ftree.Ops[int64, int64, int64] {
			return ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
		},
		initial, nil, nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// deleteAtomic deletes keys in one UpdateAtomic: one atomic transaction,
// each shard's share of it one multi-delete.
func deleteAtomic[K, V, A any](m *Map[K, V, A], keys ...K) error {
	return m.UpdateAtomic(func(t *Txn[K, V, A]) {
		for _, k := range keys {
			t.Delete(k)
		}
	})
}

// TestShardedMatrix runs the full point-op/batch/fan-out surface over every
// Version Maintenance algorithm and checks per-shard precise collection:
// after Close, every shard's allocator must report zero live nodes.
func TestShardedMatrix(t *testing.T) {
	for _, alg := range vm.Names() {
		t.Run(alg, func(t *testing.T) {
			initial := make([]ftree.Entry[int64, int64], 500)
			for i := range initial {
				initial[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: int64(i)}
			}
			m := newSharded(t, alg, 4, 3, initial)

			// Point ops route to the right shard.
			if v, ok := m.Get(123); !ok || v != 123 {
				t.Fatalf("Get(123) = %d,%v", v, ok)
			}
			m.Insert(1000, -5)
			if v, ok := m.Get(1000); !ok || v != -5 {
				t.Fatalf("Get(1000) = %d,%v", v, ok)
			}
			m.Delete(0)
			if m.Has(0) {
				t.Fatal("deleted key still present")
			}
			m.InsertWith(1000, 6, func(old, new int64) int64 { return old + new })
			if v, _ := m.Get(1000); v != 1 {
				t.Fatalf("InsertWith = %d, want 1", v)
			}

			// Batched writes: one atomic transaction each.
			var entries []ftree.Entry[int64, int64]
			for i := int64(2000); i < 2100; i++ {
				entries = append(entries, ftree.Entry[int64, int64]{Key: i, Val: i})
			}
			m.InsertBatch(entries, nil)
			var dels []int64
			for i := int64(2000); i < 2050; i++ {
				dels = append(dels, i)
			}
			deleteAtomic(m, dels...)
			want := int64(500) - 1 + 1 + 50 // initial - Delete(0) + Insert(1000) + surviving batch half
			if n := m.Len(); n != want {
				t.Fatalf("Len = %d, want %d", n, want)
			}

			// Cross-shard transaction with read-your-writes.
			m.UpdateAtomic(func(tx *Txn[int64, int64, int64]) {
				tx.Insert(7777, 1)
				if v, ok := tx.Get(7777); !ok || v != 1 {
					t.Fatalf("txn Get(7777) = %d,%v (no read-your-writes)", v, ok)
				}
				tx.Delete(7777)
				if _, ok := tx.Get(7777); ok {
					t.Fatal("txn sees key it just deleted")
				}
				tx.Insert(7777, 2)
				tx.Insert(8888, 3)
			})
			if v, _ := m.Get(7777); v != 2 {
				t.Fatalf("committed txn value = %d, want 2", v)
			}

			// Fan-out reads in global key order.
			m.View(func(s Snap[int64, int64, int64]) {
				var sum int64
				got := 0
				s.ScanFunc(100, 11, func(k, v int64) bool {
					if k != int64(100+got) {
						t.Fatalf("ScanFunc out of order at %d: key %d", got, k)
					}
					sum += v
					got++
					return true
				})
				if got != 11 {
					t.Fatalf("ScanFunc(100, 11) visited %d entries", got)
				}
				if ar := s.AugRange(100, 110); ar != sum {
					t.Fatalf("AugRange = %d, range sum = %d", ar, sum)
				}
				prev := int64(-1 << 62)
				n := 0
				s.ForEachCond(func(k, v int64) bool {
					if k <= prev {
						t.Fatalf("ForEachCond out of order: %d after %d", k, prev)
					}
					prev = k
					n++
					return true
				})
				if int64(n) != s.Len() {
					t.Fatalf("ForEachCond visited %d, Len = %d", n, s.Len())
				}
				if v, ok := s.Get(7777); !ok || v != 2 {
					t.Fatalf("Snap.Get(7777) = %d,%v", v, ok)
				}
			})

			m.Close()
			for i := 0; i < m.NumShards(); i++ {
				if live := Shard(m, i).Ops().Live(); live != 0 {
					t.Fatalf("%s: shard %d leaked %d nodes", alg, i, live)
				}
			}
		})
	}
}

// TestShardedConcurrent hammers a sharded map from many goroutines doing
// point ops while others commit runs of writes (CommitEach); -race checks
// the pid discipline, and Close checks precise collection.
func TestShardedConcurrent(t *testing.T) {
	const workers, iters, run = 8, 400, 16
	m := newSharded(t, "pswf", 4, workers+2, nil)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := int64(w*iters + i)
				if w%2 == 0 {
					m.Insert(k, k) // direct single-shard write transactions
				} else if i%run == run-1 {
					m.CommitEach(func(tx *Txn[int64, int64, int64]) {
						for j := k - run + 1; j <= k; j++ {
							tx.Insert(j, j)
						}
					})
				}
				if i%16 == 0 {
					m.Get(int64(i))
					_ = m.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := m.Len(); n != workers*iters {
		t.Fatalf("Len = %d, want %d", n, workers*iters)
	}
	if m.Commits() <= 0 {
		t.Fatal("no commits recorded")
	}
	if a := m.Aborts(); a != 0 {
		t.Fatalf("%d Set failures: some commit ran beside its shard's writer", a)
	}
	m.Close()
	if live := m.Live(); live != 0 {
		t.Fatalf("leaked %d nodes across shards", live)
	}
}

// twoShardKeys returns two keys living on different shards.
func twoShardKeys(t *testing.T, m *Map[int64, int64, int64]) (a, b int64) {
	t.Helper()
	a = 1
	for b = a + 1; m.ShardFor(b) == m.ShardFor(a); b++ {
	}
	return a, b
}

// TestTxnReadYourWritesAcrossShards is the regression suite for Txn.Get's
// read-your-writes semantics when the transaction spans two shards:
// get-after-delete must report absence (not fall through to the committed
// value), get-after-insert-then-delete likewise, and combining intents
// (InsertWith) must fold on top of whatever lies below them.
func TestTxnReadYourWritesAcrossShards(t *testing.T) {
	m := newSharded(t, "pswf", 4, 2, nil)
	defer m.Close()
	a, b := twoShardKeys(t, m)
	m.Insert(a, 10)
	m.Insert(b, 20)

	add := func(old, new int64) int64 { return old + new }
	m.UpdateAtomic(func(tx *Txn[int64, int64, int64]) {
		// get-after-delete of a committed key, on each shard.
		tx.Delete(a)
		if _, ok := tx.Get(a); ok {
			t.Fatal("Get after Delete sees committed value on shard A")
		}
		tx.Delete(b)
		if _, ok := tx.Get(b); ok {
			t.Fatal("Get after Delete sees committed value on shard B")
		}
		// get-after-insert-then-delete of a fresh key.
		tx.Insert(a+100, 1)
		tx.Delete(a + 100)
		if _, ok := tx.Get(a + 100); ok {
			t.Fatal("Get after insert-then-delete sees the insert")
		}
		// re-insert after delete is visible again.
		tx.Insert(b, 99)
		if v, ok := tx.Get(b); !ok || v != 99 {
			t.Fatalf("Get after delete-then-insert = %d,%v, want 99,true", v, ok)
		}
		// combining intents fold onto the committed value, onto buffered
		// bases, and seed absent keys.
		tx.InsertWith(b, 1, add) // 99 + 1
		if v, ok := tx.Get(b); !ok || v != 100 {
			t.Fatalf("Get through comb = %d,%v, want 100,true", v, ok)
		}
		tx.InsertWith(a, 5, add) // a was deleted above: comb seeds 5
		if v, ok := tx.Get(a); !ok || v != 5 {
			t.Fatalf("Get comb-after-delete = %d,%v, want 5,true", v, ok)
		}
	})
	if v, _ := m.Get(b); v != 100 {
		t.Fatalf("committed b = %d, want 100", v)
	}
	if v, _ := m.Get(a); v != 5 {
		t.Fatalf("committed a = %d, want 5", v)
	}
	if m.Has(a + 100) {
		t.Fatal("insert-then-delete key leaked into the map")
	}
}

// TestTxnInsertBatchMatchesInsertWith: a Txn.InsertBatch commits what the
// same entries buffered one InsertWith at a time commit, under an
// associative comb and under nil (overwrite), for entries with repeated keys
// over keys present and absent, with enough entries per shard for the
// parallel legs — and a read through the transaction sees the same folded
// value.
func TestTxnInsertBatchMatchesInsertWith(t *testing.T) {
	type txn = Txn[int64, int64, int64]
	add := func(old, new int64) int64 { return old + new }
	initial := make([]ftree.Entry[int64, int64], 0, 200)
	for k := int64(0); k < 400; k += 2 {
		initial = append(initial, ftree.Entry[int64, int64]{Key: k, Val: k})
	}
	entries := make([]ftree.Entry[int64, int64], 600)
	for i := range entries {
		k := int64(i*7) % 500 // repeats keys, on and off the initial set
		entries[i] = ftree.Entry[int64, int64]{Key: k, Val: int64(i)}
	}
	dumpInt := func(m *Map[int64, int64, int64]) map[int64]int64 {
		out := map[int64]int64{}
		m.View(func(s Snap[int64, int64, int64]) { s.ForEachCond(func(k, v int64) bool { out[k] = v; return true }) })
		return out
	}
	for _, comb := range []func(old, new int64) int64{add, nil} {
		batched, single := newSharded(t, "pswf", 3, 2, initial), newSharded(t, "pswf", 3, 2, initial)
		var viaBatch, viaOne int64
		if err := batched.UpdateAtomic(func(tx *txn) { tx.InsertBatch(entries, comb); viaBatch, _ = tx.Get(0) }); err != nil {
			t.Fatal(err)
		}
		if err := single.UpdateAtomic(func(tx *txn) {
			for _, e := range entries {
				if comb == nil {
					tx.Insert(e.Key, e.Val)
				} else {
					tx.InsertWith(e.Key, e.Val, comb)
				}
			}
			viaOne, _ = tx.Get(0)
		}); err != nil {
			t.Fatal(err)
		}
		got, want := dumpInt(batched), dumpInt(single)
		if len(got) != len(want) || viaBatch != viaOne {
			t.Fatalf("comb %v: %d keys via InsertBatch, %d one at a time; Get(0) %d vs %d",
				comb != nil, len(got), len(want), viaBatch, viaOne)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("comb %v: key %d = %d via InsertBatch, %d one at a time", comb != nil, k, got[k], v)
			}
		}
		for _, m := range []*Map[int64, int64, int64]{batched, single} {
			m.Close()
			if live := m.Live(); live != 0 {
				t.Fatalf("comb %v: leaked %d nodes", comb != nil, live)
			}
		}
	}
}

// TestAtomicTransferInvariant is the torn-write detector: writers move
// balance between accounts on different shards — with UpdateAtomic, or
// with a two-entry InsertBatch — and ViewConsistent readers assert the
// total balance never wavers.  Plain View
// readers run alongside and are allowed to observe torn sums (per-shard
// semantics — logged, not asserted, since tearing is timing-dependent).
// Run under -race over the imprecise epoch/hp maintainers and PSWF.
func TestAtomicTransferInvariant(t *testing.T) {
	const accounts, balance = 64, 100
	iters := 1200
	if testing.Short() {
		iters = 300
	}
	add := func(old, new int64) int64 { return old + new }
	shapes := []struct {
		name     string
		transfer func(m *Map[int64, int64, int64], a, b int64) error
	}{
		{"UpdateAtomic", func(m *Map[int64, int64, int64], a, b int64) error {
			return m.UpdateAtomic(func(tx *Txn[int64, int64, int64]) {
				tx.InsertWith(a, -1, add)
				tx.InsertWith(b, 1, add)
			})
		}},
		{"InsertBatch", func(m *Map[int64, int64, int64], a, b int64) error {
			return m.InsertBatch([]ftree.Entry[int64, int64]{{Key: a, Val: -1}, {Key: b, Val: 1}}, add)
		}},
	}
	for _, alg := range []string{"epoch", "hp", "pswf"} {
		t.Run(alg, func(t *testing.T) {
			for _, shape := range shapes {
				t.Run(shape.name, func(t *testing.T) {
					initial := make([]ftree.Entry[int64, int64], accounts)
					for i := range initial {
						initial[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: balance}
					}
					m := newSharded(t, alg, 4, 8, initial)

					const writers, readers = 3, 2
					var wg sync.WaitGroup
					stop := make(chan struct{})
					for w := 0; w < writers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							rng := ycsb.NewSplitMix64(uint64(w)*77 + 3)
							for i := 0; i < iters; i++ {
								a := int64(rng.Intn(accounts))
								b := int64(rng.Intn(accounts))
								if a == b || m.ShardFor(a) == m.ShardFor(b) {
									continue // only cross-shard transfers stress the protocol
								}
								if err := shape.transfer(m, a, b); err != nil {
									t.Error(err)
									return
								}
							}
						}(w)
					}
					go func() {
						wg.Wait()
						close(stop)
					}()
					var rwg sync.WaitGroup
					torn := 0
					for r := 0; r < readers; r++ {
						rwg.Add(1)
						go func(r int) {
							defer rwg.Done()
							for {
								select {
								case <-stop:
									return
								default:
								}
								m.ViewConsistent(func(s Snap[int64, int64, int64]) {
									if !s.Consistent() || s.GSNs() == nil {
										t.Error("ViewConsistent snap does not report a GSN vector")
									}
									if sum := s.AugRange(0, accounts-1); sum != accounts*balance {
										t.Errorf("torn consistent view: sum = %d, want %d", sum, accounts*balance)
									}
								})
							}
						}(r)
					}
					// One plain-View reader: per-shard semantics, may legitimately
					// observe torn sums while an atomic install is mid-flight.
					rwg.Add(1)
					go func() {
						defer rwg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							m.View(func(s Snap[int64, int64, int64]) {
								if s.Consistent() {
									t.Error("plain View snap claims consistency")
								}
								if sum := s.AugRange(0, accounts-1); sum != accounts*balance {
									torn++
								}
							})
						}
					}()
					rwg.Wait()
					retries, fenced := m.ConsistentStats()
					t.Logf("%s: plain View torn sums observed: %d; consistent retries %d, fence fallbacks %d",
						alg, torn, retries, fenced)
					m.ViewConsistent(func(s Snap[int64, int64, int64]) {
						if sum := s.AugRange(0, accounts-1); sum != accounts*balance {
							t.Fatalf("final sum = %d, want %d", sum, accounts*balance)
						}
					})
					if a := m.Aborts(); a != 0 {
						t.Fatalf("%d Set failures: some commit ran beside its shard's writer", a)
					}
					m.Close()
					if live := m.Live(); live != 0 {
						t.Fatalf("leaked %d nodes", live)
					}
				})
			}
		})
	}
}

// TestConsistentFenceFallback drives an atomic install by hand and checks
// the protocol end to end: while the install seqlock is odd, ViewConsistent
// must refuse every optimistic double-collect, fall back to fencing the
// writer slots, block until the install completes, and then observe both
// shards' new roots (never one without the other).
func TestConsistentFenceFallback(t *testing.T) {
	m := newSharded(t, "pswf", 2, 3, nil)
	defer m.Close()
	a, b := twoShardKeys(t, m)
	sa, sb := m.ShardFor(a), m.ShardFor(b)
	m.maxCollects = 2 // exhaust the optimistic attempts quickly

	installing := make(chan struct{})
	finish := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A two-shard atomic install of {a: 1, b: 1}, through the map's own
		// openInstall and close, that parks mid-flight: shard A's root is already
		// installed, shard B's is not.
		fence := []int{min(sa, sb), max(sa, sb)}
		m.lockSlots(fence)
		defer m.unlockSlots(fence)
		in := m.openInstall(fence)
		m.shards[sa].With(func(h *core.Handle[int64, int64, int64]) {
			h.Update(func(tx *core.Txn[int64, int64, int64]) { tx.Insert(a, 1) })
		})
		close(installing)
		<-finish
		m.shards[sb].With(func(h *core.Handle[int64, int64, int64]) {
			h.Update(func(tx *core.Txn[int64, int64, int64]) { tx.Insert(b, 1) })
		})
		in.close(fence)
	}()

	<-installing
	// Let the fenced reader block on the held slots before the install is
	// allowed to finish; the sleep only widens the window, correctness does
	// not depend on it.
	time.AfterFunc(10*time.Millisecond, func() { close(finish) })
	m.ViewConsistent(func(s Snap[int64, int64, int64]) {
		va, oka := s.Get(a)
		vb, okb := s.Get(b)
		if !oka || !okb || va != 1 || vb != 1 {
			t.Fatalf("consistent view saw torn install: a=%d,%v b=%d,%v", va, oka, vb, okb)
		}
	})
	wg.Wait()
	retries, fenced := m.ConsistentStats()
	if fenced == 0 {
		t.Fatalf("expected the fence fallback to fire (retries %d, fenced %d)", retries, fenced)
	}
}

// TestShardedUncollectedBound: every shard individually respects PSWF's
// 2P+1 version bound, so the aggregate is at most S*(2P+1).
func TestShardedUncollectedBound(t *testing.T) {
	const shards, procs = 4, 3
	m := newSharded(t, "pswf", shards, procs, nil)
	for i := int64(0); i < 500; i++ {
		m.Insert(i, i)
	}
	if u := m.Uncollected(); u < shards || u > shards*(2*procs+1) {
		t.Fatalf("Uncollected = %d outside [S, S*(2P+1)] = [%d, %d]", u, shards, shards*(2*procs+1))
	}
	m.Close()
	if live := m.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestShardedConfigErrors: constructor validation, including the wrapped
// per-shard core error.
func TestShardedConfigErrors(t *testing.T) {
	mk := func() *ftree.Ops[int64, int64, int64] {
		return ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	}
	hash := func(k int64) uint64 { return uint64(k) }
	if _, err := New(Config[int64]{Shards: 0, Procs: 1, Hash: hash}, mk, nil, nil, nil); err == nil {
		t.Fatal("Shards=0 accepted")
	}
	if _, err := New(Config[int64]{Shards: 2, Procs: 1}, mk, nil, nil, nil); err == nil {
		t.Fatal("nil Hash accepted")
	}
	if _, err := New(Config[int64]{Shards: 2, Procs: 1, Algorithm: "bogus", Hash: hash}, mk, nil, nil, nil); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

// TestShardedHandleAccess: long-lived per-shard read handles (the benchmark
// pattern) coexist with the pool-leasing convenience API, whose writes
// lease their own pids beside them.
func TestShardedHandleAccess(t *testing.T) {
	m := newSharded(t, "pswf", 2, 3, nil)
	handles := make([]*core.Handle[int64, int64, int64], m.NumShards())
	for i := range handles {
		handles[i] = Shard(m, i).Handle()
	}
	for i := int64(0); i < 100; i++ {
		if err := m.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	var n int64
	for _, h := range handles {
		h.Read(func(s core.Snapshot[int64, int64, int64]) { n += s.Len() })
	}
	if n != 100 {
		t.Fatalf("per-shard handle reads saw %d keys, want 100", n)
	}
	for _, h := range handles {
		h.Close()
	}
	m.Close()
	if live := m.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

package batch

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// read runs a read transaction on a leased handle: the combiner leases a
// pid per batch, so tests never hard-code a reader pid next to it.
func read(m *core.Map[int64, int64, int64], f func(s core.Snapshot[int64, int64, int64])) {
	m.With(func(h *core.Handle[int64, int64, int64]) { h.Read(f) })
}

func newIntMap(t testing.TB, procs int) *core.Map[int64, int64, int64] {
	t.Helper()
	ops := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 256)
	m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: procs}, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSubmitFlush(t *testing.T) {
	m := newIntMap(t, 2)
	b := New(m, Config{Clients: 1, MaxLatency: time.Millisecond}, nil)
	b.Start()
	for i := int64(0); i < 100; i++ {
		b.Submit(0, Request[int64, int64]{Op: OpInsert, Key: i, Val: i * 3})
	}
	b.Flush(0)
	read(m, func(s core.Snapshot[int64, int64, int64]) {
		if s.Len() != 100 {
			t.Fatalf("Len = %d", s.Len())
		}
		if v, _ := s.Get(42); v != 126 {
			t.Fatalf("Get(42) = %d", v)
		}
	})
	b.Stop()
	m.Close()
	if m.Ops().Live() != 0 {
		t.Fatalf("leaked %d nodes", m.Ops().Live())
	}
}

func TestSubmitWaitDurability(t *testing.T) {
	m := newIntMap(t, 2)
	b := New(m, Config{Clients: 1, MaxLatency: time.Millisecond}, nil)
	b.Start()
	b.SubmitWait(0, Request[int64, int64]{Op: OpInsert, Key: 7, Val: 70})
	// After SubmitWait returns the write must be visible with no Flush.
	read(m, func(s core.Snapshot[int64, int64, int64]) {
		if v, ok := s.Get(7); !ok || v != 70 {
			t.Fatalf("Get(7) = %d,%v after SubmitWait", v, ok)
		}
	})
	b.Stop()
	m.Close()
}

func TestDeletesAndCombine(t *testing.T) {
	m := newIntMap(t, 2)
	comb := func(old, new int64) int64 { return old + new }
	b := New(m, Config{Clients: 1, MaxLatency: time.Millisecond}, comb)
	b.Start()
	for i := 0; i < 5; i++ {
		b.Submit(0, Request[int64, int64]{Op: OpInsert, Key: 1, Val: 10})
	}
	b.Submit(0, Request[int64, int64]{Op: OpInsert, Key: 2, Val: 1})
	b.Submit(0, Request[int64, int64]{Op: OpDelete, Key: 2})
	b.Flush(0)
	read(m, func(s core.Snapshot[int64, int64, int64]) {
		if v, _ := s.Get(1); v != 50 {
			t.Fatalf("combined value = %d, want 50", v)
		}
		if s.Has(2) {
			t.Fatal("deleted key survived the batch")
		}
	})
	b.Stop()
	m.Close()
}

// TestManyClientsNoLostUpdates: concurrent clients hammer disjoint key
// ranges while readers run; every submitted update must be present at the
// end and GC accounting must balance.
func TestManyClientsNoLostUpdates(t *testing.T) {
	const clients, perClient = 8, 3000
	m := newIntMap(t, 2)
	b := New(m, Config{Clients: clients, BufCap: 512, MaxLatency: time.Millisecond}, nil)
	b.Start()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := int64(c) * perClient
			for i := int64(0); i < perClient; i++ {
				b.Submit(c, Request[int64, int64]{Op: OpInsert, Key: base + i, Val: base + i})
			}
			b.Flush(c)
		}(c)
	}
	// A reader concurrently checks snapshot consistency.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			read(m, func(s core.Snapshot[int64, int64, int64]) {
				n := s.Len()
				sum := s.AugRange(0, clients*perClient)
				_ = n
				_ = sum
			})
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	read(m, func(s core.Snapshot[int64, int64, int64]) {
		if s.Len() != clients*perClient {
			t.Fatalf("Len = %d, want %d", s.Len(), clients*perClient)
		}
	})
	if b.Applied() != clients*perClient {
		t.Fatalf("Applied = %d", b.Applied())
	}
	if b.Batches() > b.Applied() {
		t.Fatal("more batches than requests")
	}
	b.Stop()
	m.Close()
	if m.Ops().Live() != 0 {
		t.Fatalf("leaked %d nodes", m.Ops().Live())
	}
}

// TestStopDrains: requests submitted before Stop must be committed by the
// final drain even if the combiner never woke for them — and resolved by the
// time Stop returns: Stop joins the completer, not just the combiner.
func TestStopDrains(t *testing.T) {
	m := newIntMap(t, 2)
	b := New(m, Config{Clients: 1, MaxLatency: time.Hour}, nil) // never wakes on its own
	b.Start()
	time.Sleep(5 * time.Millisecond) // let the combiner park in its timer
	for i := int64(0); i < 10; i++ {
		b.Submit(0, Request[int64, int64]{Op: OpInsert, Key: i, Val: i})
	}
	b.Stop()
	if got := b.Applied(); got != 10 {
		t.Fatalf("Applied = %d when Stop returned, want 10: the completer was not joined", got)
	}
	if q := b.rings[0]; q.committed.Load() != q.tail.Load() {
		t.Fatalf("committed = %d, tail = %d when Stop returned", q.committed.Load(), q.tail.Load())
	}
	read(m, func(s core.Snapshot[int64, int64, int64]) {
		if s.Len() != 10 {
			t.Fatalf("Len = %d after Stop drain", s.Len())
		}
	})
	m.Close()
}

// awaitParked waits until client's producer sleeps in its ring for why.
func awaitParked(t *testing.T, b *Batcher[int64, int64, int64], client int, why uint32) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); b.rings[client].parked.Load() != why; {
		if time.Now().After(deadline) {
			t.Fatal("the producer never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStopReleasesParkedProducer: a producer asleep on a full ring when Stop
// is called — against the contract, clients were meant to have stopped — is
// let go: the final drain makes room once, and after it nobody would, so
// Stop itself wakes whoever is still parked and their leftovers are dropped.
// Every callback still fires exactly once: nil for what the drain committed,
// ErrStopped for what it did not.
func TestStopReleasesParkedProducer(t *testing.T) {
	const n = 64
	m := newIntMap(t, 2)
	b := New(m, Config{Clients: 1, BufCap: 4, MaxLatency: time.Hour}, nil) // only Stop's drain ever gathers
	b.Start()
	fired := make([]atomic.Int32, n)
	var committed, dropped atomic.Int32
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := int64(0); i < n; i++ {
			b.SubmitAsync(0, Request[int64, int64]{Op: OpInsert, Key: i, Val: i}, func(err error) {
				fired[i].Add(1)
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, ErrStopped):
					dropped.Add(1)
				default:
					t.Errorf("callback %d got %v", i, err)
				}
			})
		}
		b.Flush(0) // parked or not, this must return too
	}()
	awaitParked(t, b, 0, waitSpace)
	b.Stop()
	select {
	case <-produced:
	case <-time.After(10 * time.Second):
		t.Fatal("a producer parked at Stop was never released")
	}
	for i := range fired {
		// A request the producer slipped into the ring after the final
		// drain's last gather is neither committed nor refused; the contract
		// (no submits during Stop) is what rules those out, so only double
		// fires are an error here.
		if c := fired[i].Load(); c > 1 {
			t.Fatalf("callback %d fired %d times", i, c)
		}
	}
	if committed.Load() < 4 {
		t.Fatalf("the final drain committed %d requests, want at least the 4 the ring held", committed.Load())
	}
	read(m, func(s core.Snapshot[int64, int64, int64]) {
		if s.Len() != int64(committed.Load()) {
			t.Fatalf("Len = %d, callbacks acknowledged %d", s.Len(), committed.Load())
		}
	})
	m.Close()
}

// TestParkedHandshakeStress hunts lost wake-ups in the declare-recheck-sleep
// handshake: rings of one and two slots, so nearly every Submit parks for
// room and every SubmitWait and Flush parks for its commit, four producers
// mixing all three against one combiner and one completer.  A lost wake-up
// is a producer that never finishes.  The full count runs under the race
// detector without -short (the nightly lane); a plain build spends an idle
// timer period on most rounds, so it and -short run a tenth.
func TestParkedHandshakeStress(t *testing.T) {
	const producers = 4
	per := 50_000
	if testing.Short() || !raceEnabled {
		per = 5_000
	}
	for _, bufCap := range []int{1, 2} {
		t.Run(fmt.Sprintf("BufCap=%d", bufCap), func(t *testing.T) {
			m := newIntMap(t, 2)
			b := New(m, Config{Clients: producers, BufCap: bufCap, MaxLatency: 50 * time.Microsecond}, nil)
			b.Start()
			var wg sync.WaitGroup
			for c := 0; c < producers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c)))
					for i := 0; i < per; i++ {
						// Arrive anywhere in the combiner's cycle, not just
						// right behind the gather that woke us: the windows
						// the handshake has to close are nanoseconds wide.
						for d, t0 := time.Duration(rng.Intn(20_000)), time.Now(); time.Since(t0) < d; {
						}
						r := Request[int64, int64]{Op: OpInsert, Key: int64(c*1024 + i%1024), Val: int64(i)}
						switch {
						case i%8 == 7:
							b.SubmitWait(c, r)
						case i%64 == 33:
							b.Submit(c, r)
							b.Flush(c)
						default:
							b.Submit(c, r)
						}
					}
					b.Flush(c)
				}(c)
			}
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(5 * time.Minute):
				t.Fatalf("lost wake-up: producers still parked with %d of %d requests applied", b.Applied(), producers*per)
			}
			if got := b.Applied(); got != int64(producers*per) {
				t.Fatalf("Applied = %d, want %d", got, producers*per)
			}
			read(m, func(s core.Snapshot[int64, int64, int64]) {
				for c := 0; c < producers; c++ {
					k := int64(c*1024 + (per-1)%1024)
					if v, _ := s.Get(k); v != int64(per-1) {
						t.Fatalf("client %d: last write to key %d reads %d, want %d", c, k, v, per-1)
					}
				}
			})
			b.Stop()
			m.Close()
			if live := m.Ops().Live(); live != 0 {
				t.Fatalf("leaked %d nodes", live)
			}
		})
	}
}

// TestBackpressure: a tiny buffer forces Submit to block until the
// combiner catches up, without losing or reordering a client's updates.
func TestBackpressure(t *testing.T) {
	m := newIntMap(t, 2)
	b := New(m, Config{Clients: 1, BufCap: 4, MaxLatency: 100 * time.Microsecond}, nil)
	b.Start()
	rng := rand.New(rand.NewSource(1))
	last := map[int64]int64{}
	for i := 0; i < 5000; i++ {
		k := rng.Int63n(50)
		v := rng.Int63n(1 << 30)
		b.Submit(0, Request[int64, int64]{Op: OpInsert, Key: k, Val: v})
		last[k] = v
	}
	b.Flush(0)
	read(m, func(s core.Snapshot[int64, int64, int64]) {
		for k, v := range last {
			if got, _ := s.Get(k); got != v {
				t.Fatalf("key %d = %d, want %d (reordered within client)", k, got, v)
			}
		}
	})
	b.Stop()
	m.Close()
}

// TestMaxBatchRespected: the combiner never commits more than MaxBatch
// requests per transaction.
func TestMaxBatchRespected(t *testing.T) {
	m := newIntMap(t, 2)
	b := New(m, Config{Clients: 2, MaxLatency: time.Millisecond, MaxBatch: 64}, nil)
	b.Start()
	for i := int64(0); i < 1000; i++ {
		b.Submit(int(i%2), Request[int64, int64]{Op: OpInsert, Key: i, Val: i})
	}
	b.Flush(0)
	b.Flush(1)
	if b.MaxBatchSeen() > 64 {
		t.Fatalf("MaxBatchSeen = %d, cap 64", b.MaxBatchSeen())
	}
	b.Stop()
	m.Close()
}

// TestSubmitAsyncExactlyOnce: every SubmitAsync callback fires exactly
// once, after the commit containing its request — the contract the
// pipelined network server's in-order response writers depend on.
func TestSubmitAsyncExactlyOnce(t *testing.T) {
	const n = 2000
	m := newIntMap(t, 2)
	b := New(m, Config{Clients: 2, BufCap: 64, MaxLatency: 100 * time.Microsecond}, nil)
	b.Start()
	fired := make([]atomic.Int32, n)
	var done atomic.Int32
	all := make(chan struct{})
	for i := int64(0); i < n; i++ {
		i := i
		b.SubmitAsync(int(i)%2, Request[int64, int64]{Op: OpInsert, Key: i, Val: i * 2}, func(err error) {
			if err != nil {
				t.Errorf("callback %d got error %v", i, err)
			}
			fired[i].Add(1)
			if done.Add(1) == n {
				close(all)
			}
		})
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d callbacks fired", done.Load(), n)
	}
	// Callbacks fire after the watermark publication, so by now every
	// request is committed and visible.
	read(m, func(s core.Snapshot[int64, int64, int64]) {
		if s.Len() != n {
			t.Fatalf("Len = %d after all callbacks, want %d", s.Len(), n)
		}
	})
	b.Stop()
	for i := range fired {
		if c := fired[i].Load(); c != 1 {
			t.Fatalf("callback %d fired %d times", i, c)
		}
	}
	m.Close()
}

// TestSubmitAsyncShutdownDrain: callbacks for requests still buffered when
// Stop is called fire exactly once from the final drain — a server shutting
// down must complete every accepted write's response, never drop or double
// it.
func TestSubmitAsyncShutdownDrain(t *testing.T) {
	const n = 100
	m := newIntMap(t, 2)
	b := New(m, Config{Clients: 1, MaxLatency: time.Hour}, nil) // combiner never wakes on its own
	b.Start()
	time.Sleep(5 * time.Millisecond) // let it park in its timer
	fired := make([]atomic.Int32, n)
	for i := int64(0); i < n; i++ {
		i := i
		b.SubmitAsync(0, Request[int64, int64]{Op: OpInsert, Key: i, Val: i}, func(error) { fired[i].Add(1) })
	}
	b.Stop() // final drain commits, and the joined completer has fired every callback
	for i := range fired {
		if c := fired[i].Load(); c != 1 {
			t.Fatalf("callback %d fired %d times by the time Stop returned", i, c)
		}
	}
	read(m, func(s core.Snapshot[int64, int64, int64]) {
		if s.Len() != n {
			t.Fatalf("Len = %d after Stop drain", s.Len())
		}
	})
	m.Close()
}

// TestCommitHook: the owner's commit function sees every gathered batch,
// and its error is delivered to every callback in the batch while the
// watermarks still advance — SubmitWait and Flush never wedge behind a
// commit function that refuses.
func TestCommitHook(t *testing.T) {
	m := newIntMap(t, 2)
	defer m.Close()
	var failing atomic.Bool
	errRefused := errors.New("log refused")
	b := NewWithCommit[int64, int64, int64](Config{Clients: 1, MaxLatency: 100 * time.Microsecond},
		Commit[int64, int64]{Apply: func(ins []ftree.Entry[int64, int64], dels []int64) (int64, error) {
			if failing.Load() {
				return 0, errRefused // fail fast: nothing reaches memory either
			}
			m.With(func(h *core.Handle[int64, int64, int64]) {
				h.Update(func(tx *core.Txn[int64, int64, int64]) { Apply(tx, ins, dels, nil) })
			})
			return 0, nil
		}})
	b.Start()

	errs := make(chan error, 3)
	b.SubmitAsync(0, Request[int64, int64]{Op: OpInsert, Key: 1, Val: 10}, func(err error) { errs <- err })
	if err := <-errs; err != nil {
		t.Fatalf("healthy commit delivered error %v", err)
	}

	failing.Store(true)
	for k := int64(2); k <= 4; k++ {
		b.SubmitAsync(0, Request[int64, int64]{Op: OpInsert, Key: k, Val: 10 * k}, func(err error) { errs <- err })
	}
	for k := 2; k <= 4; k++ {
		if err := <-errs; !errors.Is(err, errRefused) {
			t.Fatalf("refused batch delivered %v, want %v", err, errRefused)
		}
	}
	b.SubmitWait(0, Request[int64, int64]{Op: OpInsert, Key: 5, Val: 50}) // must not wedge
	b.Flush(0)                                                            // nor this
	if got := b.Applied(); got != 1 {
		t.Fatalf("Applied = %d, want only the accepted request", got)
	}
	read(m, func(s core.Snapshot[int64, int64, int64]) {
		if s.Len() != 1 {
			t.Fatalf("Len = %d: a refused batch reached memory", s.Len())
		}
		if v, ok := s.Get(1); !ok || v != 10 {
			t.Fatal("accepted batch missing")
		}
	})
	b.Stop()
}

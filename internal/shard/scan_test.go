package shard

import (
	"math"
	"sync"
	"testing"
	"time"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/vm"
	"mvgc/internal/ycsb"
)

// scanOf collects ScanFunc(lo, n)'s stream.
func scanOf(s Snap[int64, int64, int64], lo int64, n int) []ftree.Entry[int64, int64] {
	var out []ftree.Entry[int64, int64]
	s.ScanFunc(lo, n, func(k, v int64) bool {
		out = append(out, ftree.Entry[int64, int64]{Key: k, Val: v})
		return true
	})
	return out
}

// TestScanEquivalence drives an S-shard map and a 1-shard reference with
// the same randomized op stream over every Version Maintenance algorithm,
// then checks that both merged-scan surfaces — ForEachCond and ScanFunc,
// the latter also stopped at an upper key — stream exactly the
// reference's in-order view.  The 1-shard map degenerates the loser tree
// to a single leaf, so agreement here pins the merge itself, not just the
// per-shard iterators.
func TestScanEquivalence(t *testing.T) {
	for _, alg := range vm.Names() {
		t.Run(alg, func(t *testing.T) {
			sharded := newSharded(t, alg, 5, 2, nil) // 5: a non-power-of-2 tournament
			single := newSharded(t, alg, 1, 2, nil)
			defer sharded.Close()
			defer single.Close()

			rng := ycsb.NewSplitMix64(42)
			const keySpace = 2000
			for i := 0; i < 3000; i++ {
				k := int64(rng.Intn(keySpace))
				switch rng.Intn(4) {
				case 0:
					sharded.Delete(k)
					single.Delete(k)
				default:
					v := int64(rng.Next())
					sharded.Insert(k, v)
					single.Insert(k, v)
				}
			}

			var want []ftree.Entry[int64, int64]
			single.View(func(s Snap[int64, int64, int64]) {
				want = scanOf(s, 0, keySpace+1)
			})
			sharded.View(func(s Snap[int64, int64, int64]) {
				// Full ordered walk.
				var got []ftree.Entry[int64, int64]
				s.ForEachCond(func(k, v int64) bool {
					got = append(got, ftree.Entry[int64, int64]{Key: k, Val: v})
					return true
				})
				if len(got) != len(want) {
					t.Fatalf("ForEachCond streamed %d entries, reference has %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("ForEachCond[%d] = %v, want %v", i, got[i], want[i])
					}
				}
				// Random windows: the first n entries ≥ lo, and the
				// entries in [lo, hi].
				for rep := 0; rep < 50; rep++ {
					lo := int64(rng.Intn(keySpace))
					n := 1 + int(rng.Intn(100))
					// Reference window: the first n entries ≥ lo.
					var ref []ftree.Entry[int64, int64]
					for _, e := range want {
						if e.Key >= lo && len(ref) < n {
							ref = append(ref, e)
						}
					}
					got := 0
					if s.ScanFunc(lo, n, func(k, v int64) bool {
						if k != ref[got].Key || v != ref[got].Val {
							t.Fatalf("ScanFunc(%d,%d)[%d] = %d:%d, want %v", lo, n, got, k, v, ref[got])
						}
						got++
						return true
					}) != len(ref) {
						t.Fatalf("ScanFunc(%d,%d) visited %d, want %d", lo, n, got, len(ref))
					}
					if len(ref) > 0 {
						hi := ref[len(ref)-1].Key
						i := 0
						s.ScanFunc(lo, keySpace+1, func(k, v int64) bool {
							if k > hi {
								return false
							}
							if i >= len(ref) || k != ref[i].Key || v != ref[i].Val {
								t.Fatalf("ScanFunc [%d,%d] diverged at %d: %d:%d", lo, hi, i, k, v)
							}
							i++
							return true
						})
						if i != len(ref) {
							t.Fatalf("ScanFunc [%d,%d] visited %d, want %d", lo, hi, i, len(ref))
						}
					}
				}
				// Early exit: ForEachCond stops exactly where f says and
				// reports the interruption.
				stopAt := len(want) / 2
				seen := 0
				if s.ForEachCond(func(k, v int64) bool {
					seen++
					return seen < stopAt
				}) {
					t.Fatal("ForEachCond reported completion despite early stop")
				}
				if seen != stopAt {
					t.Fatalf("ForEachCond visited %d after stop at %d", seen, stopAt)
				}
				if !s.ForEachCond(func(k, v int64) bool { return true }) {
					t.Fatal("unconditional ForEachCond reported early stop")
				}
			})
		})
	}
}

// TestScanEmptyAndBounds covers the degenerate merges: empty map, scans
// past the last key and n=0.
func TestScanEmptyAndBounds(t *testing.T) {
	m := newSharded(t, "pswf", 3, 2, nil)
	defer m.Close()
	m.View(func(s Snap[int64, int64, int64]) {
		if got := scanOf(s, 0, 10); len(got) != 0 {
			t.Fatalf("scan of empty map returned %d entries", len(got))
		}
		s.ForEachCond(func(k, v int64) bool { t.Fatalf("ForEachCond on empty map visited %d", k); return true })
	})
	for i := int64(0); i < 100; i++ {
		m.Insert(i, i)
	}
	m.View(func(s Snap[int64, int64, int64]) {
		if got := scanOf(s, 100, 10); len(got) != 0 {
			t.Fatalf("scan past the last key returned %d entries", len(got))
		}
		if got := scanOf(s, 0, 0); len(got) != 0 {
			t.Fatalf("n=0 scan returned %d entries", len(got))
		}
		if n := s.ScanFunc(0, 0, func(int64, int64) bool { return true }); n != 0 {
			t.Fatalf("n=0 ScanFunc visited %d", n)
		}
	})
}

// TestScanWarmZeroAlloc pins the scan path's headline number as a unit
// test: once the per-map pool and the iterator stacks are warm, a
// fixed-length ScanFunc on a pinned snapshot performs zero heap
// allocations — with a callback made once outside the measured call, and
// with a closure literal at the call site that captures a local.
func TestScanWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	initial := make([]ftree.Entry[int64, int64], 10_000)
	for i := range initial {
		initial[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: int64(i)}
	}
	m := newSharded(t, "pswf", 4, 2, initial)
	defer m.Close()
	rng := ycsb.NewSplitMix64(7)
	m.View(func(s Snap[int64, int64, int64]) {
		var sum int64
		visit := func(k, v int64) bool { sum += v; return true }
		for i := 0; i < 100; i++ { // warm the pool and the descent stacks
			s.ScanFunc(int64(rng.Intn(10_000)), 100, visit)
		}
		allocs := testing.AllocsPerRun(100, func() {
			s.ScanFunc(int64(rng.Intn(10_000)), 100, visit)
		})
		if allocs != 0 {
			t.Fatalf("warm ScanFunc allocates %.1f times per scan", allocs)
		}
		visited := 0
		allocs = testing.AllocsPerRun(100, func() {
			n := 0
			s.ScanFunc(int64(rng.Intn(9_900)), 100, func(k, v int64) bool { n++; return true })
			visited = n
		})
		if allocs != 0 {
			t.Fatalf("warm ScanFunc with a capturing closure allocates %.1f times per scan", allocs)
		}
		if visited != 100 {
			t.Fatalf("warm ScanFunc visited %d entries, want 100", visited)
		}
	})
}

// TestPointWriteZeroAlloc is the same gate for point writes, which route
// through the shared commit primitive: on a map with no log, a warm Insert
// (overwrite), InsertWith, and Delete + re-Insert perform zero heap
// allocations — no closure, intent list or encoder escapes.
func TestPointWriteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	initial := make([]ftree.Entry[int64, int64], 10_000)
	for i := range initial {
		initial[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: int64(i)}
	}
	m := newSharded(t, "pswf", 4, 2, initial)
	defer m.Close()
	rng := ycsb.NewSplitMix64(11)
	add := func(old, new int64) int64 { return old + new }
	for _, c := range []struct {
		name string
		op   func(k int64)
	}{
		{"Insert", func(k int64) { m.Insert(k, k+1) }},
		{"InsertWith", func(k int64) { m.InsertWith(k, 1, add) }},
		{"Delete+Insert", func(k int64) { m.Delete(k); m.Insert(k, k) }},
	} {
		for i := 0; i < 2000; i++ { // warm the handle cache and the pid arenas
			c.op(int64(rng.Intn(10_000)))
		}
		if allocs := testing.AllocsPerRun(1000, func() { c.op(int64(rng.Intn(10_000))) }); allocs != 0 {
			t.Errorf("warm %s allocates %.2f times per op", c.name, allocs)
		}
	}
}

// TestTornScanForeclosed is the consistency regression for scans: with a
// two-shard atomic install parked halfway (shard A's root installed,
// shard B's not), a plain View scan merges the latest per-shard roots and
// MUST observe the half-installed transaction — the torn-scan anomaly —
// while a ViewConsistent scan of the same map must refuse that cut, fall
// back to fencing the writers, wait the install out, and stream both keys
// or neither.  The first assertion keeps the anomaly demonstrable (if it
// ever stops reproducing, the plain path got slower for nothing); the
// second forecloses it.
func TestTornScanForeclosed(t *testing.T) {
	m := newSharded(t, "pswf", 2, 3, nil)
	defer m.Close()
	a, b := twoShardKeys(t, m)
	sa, sb := m.ShardFor(a), m.ShardFor(b)
	m.maxCollects = 2 // exhaust the optimistic double-collects quickly

	installing := make(chan struct{})
	finish := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A two-shard atomic install of {a: 1, b: 1}, through the map's own
		// openInstall and close, that parks mid-flight, exactly as an UpdateAtomic
		// would look to a reader that caught it between the two installs.
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
	lo, hi := a, b
	if hi < lo {
		lo, hi = hi, lo
	}
	scanBoth := func(s Snap[int64, int64, int64]) (seenA, seenB bool) {
		s.ScanFunc(lo, math.MaxInt, func(k, v int64) bool {
			if k > hi {
				return false
			}
			if k == a {
				seenA = true
			}
			if k == b {
				seenB = true
			}
			return true
		})
		return
	}
	// The anomaly, demonstrated: the plain View merge sees shard A's new
	// root and shard B's old one — a scan of a transaction's footprint
	// returns half of it.
	m.View(func(s Snap[int64, int64, int64]) {
		seenA, seenB := scanBoth(s)
		if !seenA || seenB {
			t.Fatalf("plain View scan should see the torn install: a=%v b=%v", seenA, seenB)
		}
	})
	// The anomaly, foreclosed: ViewConsistent refuses every cut with an
	// odd install seqlock, fences, and streams the whole transaction.
	time.AfterFunc(10*time.Millisecond, func() { close(finish) })
	m.ViewConsistent(func(s Snap[int64, int64, int64]) {
		seenA, seenB := scanBoth(s)
		if seenA != seenB {
			t.Fatalf("consistent scan is torn: a=%v b=%v", seenA, seenB)
		}
		if !seenA {
			t.Fatal("consistent scan missed the completed install")
		}
	})
	wg.Wait()
	if _, fenced := m.ConsistentStats(); fenced == 0 {
		t.Fatal("expected the consistent scan to take the fence fallback")
	}
}

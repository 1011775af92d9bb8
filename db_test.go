package mvgc_test

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"mvgc"
	"mvgc/internal/ycsb"
)

// TestDBNoPidAnywhere is the acceptance property of the DB front door: an
// arbitrary number of goroutines run transactions with no pid in sight,
// and per-shard precise GC still reports zero leaks at Close.
func TestDBNoPidAnywhere(t *testing.T) {
	db, err := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{Shards: 4, Procs: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 16, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := uint64(g*iters + i)
				db.UpdateAtomic(func(tx *mvgc.DBTxn[uint64, uint64, struct{}]) {
					tx.Insert(k, k*2)
				})
				db.View(func(s mvgc.DBSnapshot[uint64, uint64, struct{}]) {
					if v, ok := s.Get(k); !ok || v != k*2 {
						t.Errorf("Get(%d) = %d,%v", k, v, ok)
					}
				})
			}
		}(g)
	}
	wg.Wait()
	if n := db.Len(); n != goroutines*iters {
		t.Fatalf("Len = %d, want %d", n, goroutines*iters)
	}
	db.Close()
	if live := db.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestDBAtomicModes covers the global-commit surface of the front door:
// UpdateAtomic + ViewConsistent round-trips with a GSN vector, on a
// 4-shard and a 2-shard database, and UpdateAtomicKeys driving a multi-key
// compare-and-swap.
func TestDBAtomicModes(t *testing.T) {
	db, err := mvgc.OpenPlainDB[uint64, int64](mvgc.DBOptions[uint64]{Shards: 4, Procs: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two keys on different shards.
	a := uint64(1)
	b := a + 1
	for db.ShardFor(b) == db.ShardFor(a) {
		b++
	}
	db.UpdateAtomic(func(tx *mvgc.DBTxn[uint64, int64, struct{}]) {
		tx.Insert(a, 100)
		tx.Insert(b, 200)
	})
	db.ViewConsistent(func(s mvgc.DBSnapshot[uint64, int64, struct{}]) {
		if !s.Consistent() {
			t.Error("ViewConsistent snap does not claim consistency")
		}
		g := s.GSNs()
		if len(g) != db.NumShards() {
			t.Fatalf("GSNs length = %d, want %d", len(g), db.NumShards())
		}
		if g[db.ShardFor(a)] == 0 || g[db.ShardFor(b)] == 0 {
			t.Errorf("touched shards report zero GSN: %v", g)
		}
		if va, _ := s.Get(a); va != 100 {
			t.Errorf("a = %d, want 100", va)
		}
	})
	db.View(func(s mvgc.DBSnapshot[uint64, int64, struct{}]) {
		if s.Consistent() || s.GSNs() != nil {
			t.Error("plain View snap claims consistency")
		}
	})

	// Multi-key CAS on UpdateAtomicKeys: applies when expectations hold,
	// leaves both keys untouched when any is stale.
	cas := func(ka, kb uint64, expA, expB, newA, newB int64) bool {
		ok := false
		db.UpdateAtomicKeys([]uint64{ka, kb}, func(tx *mvgc.DBTxn[uint64, int64, struct{}]) {
			if va, has := tx.Get(ka); !has || va != expA {
				return
			}
			if vb, has := tx.Get(kb); !has || vb != expB {
				return
			}
			ok = true
			tx.Insert(ka, newA)
			tx.Insert(kb, newB)
		})
		return ok
	}
	if !cas(a, b, 100, 200, 101, 201) {
		t.Fatal("matching CAS failed")
	}
	if cas(a, b, 100, 201, 999, 999) {
		t.Fatal("stale CAS applied")
	}
	if va, _ := db.Get(a); va != 101 {
		t.Fatalf("a = %d after CAS round, want 101", va)
	}
	db.Close()
	if live := db.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}

	// The same global-commit forms on a second, smaller database.
	adb, err := mvgc.OpenPlainDB[uint64, int64](mvgc.DBOptions[uint64]{Shards: 2, Procs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	adb.UpdateAtomic(func(tx *mvgc.DBTxn[uint64, int64, struct{}]) { tx.Insert(1, 1); tx.Insert(2, 2) })
	adb.ViewConsistent(func(s mvgc.DBSnapshot[uint64, int64, struct{}]) {
		if !s.Consistent() {
			t.Error("ViewConsistent snap is not consistent")
		}
		if v, _ := s.Get(2); v != 2 {
			t.Errorf("key 2 = %d, want 2", v)
		}
	})
	adb.Close()
	if live := adb.Live(); live != 0 {
		t.Fatalf("second db leaked %d nodes", live)
	}
}

// TestDBScan covers the front door's ordered reads on a pinned snapshot:
// ScanFunc streams from a key and ForEachCond from the start, both merging
// all shards in global key order, and both stop where their callback says.
func TestDBScan(t *testing.T) {
	db, err := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{Shards: 4, Procs: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 500
	for k := uint64(0); k < n; k++ {
		db.Insert(k, k*3)
	}
	db.View(func(s mvgc.DBSnapshot[uint64, uint64, struct{}]) {
		var got []mvgc.Entry[uint64, uint64]
		s.ScanFunc(100, 50, func(k, v uint64) bool {
			got = append(got, mvgc.Entry[uint64, uint64]{Key: k, Val: v})
			return true
		})
		if len(got) != 50 {
			t.Fatalf("ScanFunc streamed %d entries, want 50", len(got))
		}
		for i, e := range got {
			if e.Key != uint64(100+i) || e.Val != e.Key*3 {
				t.Fatalf("ScanFunc[%d] = %d:%d", i, e.Key, e.Val)
			}
		}
		if tail := s.ScanFunc(n-10, 100, func(k, v uint64) bool { return true }); tail != 10 {
			t.Fatalf("tail ScanFunc visited %d entries, want 10", tail)
		}
		// A range [10, 19]: ScanFunc stopped past its upper key.
		visited := 0
		s.ScanFunc(10, n, func(k, v uint64) bool {
			if k > 19 {
				return false
			}
			if k != uint64(10+visited) {
				t.Fatalf("range out of order at %d: %d", visited, k)
			}
			visited++
			return true
		})
		if visited != 10 {
			t.Fatalf("range visited %d, want 10", visited)
		}
		if m := s.ScanFunc(0, 7, func(k, v uint64) bool { return true }); m != 7 {
			t.Fatalf("ScanFunc visited %d, want 7", m)
		}
		if m := s.ScanFunc(0, n, func(k, v uint64) bool { return k < 4 }); m != 5 {
			t.Fatalf("early-stopped ScanFunc visited %d, want 5", m)
		}
		count := 0
		if s.ForEachCond(func(k, v uint64) bool { count++; return count < 3 }) {
			t.Fatal("ForEachCond reported completion despite early stop")
		}
		if count != 3 {
			t.Fatalf("ForEachCond visited %d, want 3", count)
		}
		count = 0
		if !s.ForEachCond(func(k, v uint64) bool {
			if k != uint64(count) || v != k*3 {
				t.Fatalf("ForEachCond[%d] = %d:%d", count, k, v)
			}
			count++
			return true
		}) || count != n {
			t.Fatalf("ForEachCond visited %d of %d", count, n)
		}
	})
}

// TestDBAugmented: cross-shard AugRange combines per-shard range sums.
func TestDBAugmented(t *testing.T) {
	var initial []mvgc.Entry[int64, int64]
	for i := int64(1); i <= 100; i++ {
		initial = append(initial, mvgc.Entry[int64, int64]{Key: i, Val: i})
	}
	db, err := mvgc.OpenDB[int64, int64, int64](mvgc.DBOptions[int64]{Shards: 3, Procs: 2}, mvgc.SumAug[int64](), initial)
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(s mvgc.DBSnapshot[int64, int64, int64]) {
		if sum := s.AugRange(1, 100); sum != 5050 {
			t.Fatalf("AugRange(1,100) = %d, want 5050", sum)
		}
		if sum := s.AugRange(10, 20); sum != 165 {
			t.Fatalf("AugRange(10,20) = %d, want 165", sum)
		}
		var es []int64
		s.ScanFunc(95, 1<<30, func(k, v int64) bool {
			if k > 200 {
				return false
			}
			es = append(es, k)
			return true
		})
		if len(es) != 6 {
			t.Fatalf("ScanFunc [95,200] = %d entries", len(es))
		}
		for i, k := range es {
			if k != int64(95+i) {
				t.Fatalf("ScanFunc unordered: %v", es)
			}
		}
	})
	db.Close()
	if live := db.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestDBStringKeys exercises the built-in string hash and ordering.
func TestDBStringKeys(t *testing.T) {
	db, err := mvgc.OpenPlainDB[string, int](mvgc.DBOptions[string]{Shards: 2, Procs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"pear", "apple", "mango", "fig", "banana"}
	for i, w := range words {
		db.Insert(w, i)
	}
	var got []string
	db.View(func(s mvgc.DBSnapshot[string, int, struct{}]) {
		s.ForEachCond(func(k string, _ int) bool { got = append(got, k); return true })
	})
	want := []string{"apple", "banana", "fig", "mango", "pear"}
	if len(got) != len(want) {
		t.Fatalf("ForEachCond visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("global order broken: %v", got)
		}
	}
	db.Close()
	if live := db.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestOpenDBValidation: option errors surface instead of panicking later.
func TestOpenDBValidation(t *testing.T) {
	if _, err := mvgc.OpenDB[int64, int64, int64](mvgc.DBOptions[int64]{}, nil, nil); err == nil {
		t.Fatal("nil augmenter accepted")
	}
	if _, err := mvgc.OpenPlainDB[int64, int64](mvgc.DBOptions[int64]{Algorithm: "bogus"}, nil); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	// Key types without a built-in hash/ordering must error, not panic.
	if _, err := mvgc.OpenPlainDB[[2]int, int](mvgc.DBOptions[[2]int]{}, nil); err == nil {
		t.Fatal("unsupported key type accepted without Hash/Cmp")
	}
}

// roundTripKeys proves one key type works end to end with zero-value
// DBOptions: the built-in autoHash routes keys to shards, and the tree's
// own-order kernels (ftree.NewNatural) find every key — and miss every
// neighbour of one, the key below the smallest and above the largest
// included — and keep the global iteration order sorted.  mk is ascending
// with gaps.
func roundTripKeys[K int | int32 | int64 | uint | uint32 | uint64](t *testing.T, mk func(i int) K) {
	t.Helper()
	db, err := mvgc.OpenPlainDB[K, int](mvgc.DBOptions[K]{Shards: 3, Procs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	batch := make([]mvgc.Entry[K, int], 0, n/2)
	for i := n - 1; i >= 0; i-- { // descending: half point writes, half one unsorted batch
		if i%2 == 0 {
			db.Insert(mk(i), i)
		} else {
			batch = append(batch, mvgc.Entry[K, int]{Key: mk(i), Val: i})
		}
	}
	if err := db.InsertBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	probes := make([]K, 0, 3*n)
	for i := 0; i < n; i++ {
		probes = append(probes, mk(i)-1, mk(i), mk(i)+1)
	}
	vals, found := make([]int, len(probes)), make([]bool, len(probes))
	db.GetBatch(probes, vals, found)
	for j, k := range probes {
		v, ok := db.Get(k)
		if want := j%3 == 1; ok != want || (ok && v != j/3) {
			t.Fatalf("Get(%v) = %d,%v want %d,%v", k, v, ok, j/3, want)
		}
		if found[j] != ok || (ok && vals[j] != v) {
			t.Fatalf("GetBatch(%v) = %d,%v; Get says %d,%v", k, vals[j], found[j], v, ok)
		}
	}
	var visited int
	var prev K
	db.View(func(s mvgc.DBSnapshot[K, int, struct{}]) {
		s.ForEachCond(func(k K, _ int) bool {
			if visited > 0 && k <= prev {
				t.Fatalf("iteration order broken: %v after %v", k, prev)
			}
			prev, visited = k, visited+1
			return true
		})
	})
	if visited != n {
		t.Fatalf("ForEachCond visited %d keys, want %d", visited, n)
	}
	db.Close()
	if live := db.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestAutoHashCmpRoundTrip covers every integer key type autoHash and the
// default ordering support, each across what an unsigned or a narrower
// comparison would get wrong: zero for the signed kinds, the sign bit for
// the unsigned.  (Strings are covered by TestDBStringKeys and TestAutoCmp.)
func TestAutoHashCmpRoundTrip(t *testing.T) {
	t.Run("int", func(t *testing.T) { roundTripKeys(t, func(i int) int { return (i - 200) * 3 }) })
	t.Run("int32", func(t *testing.T) { roundTripKeys(t, func(i int) int32 { return int32(i-200) * 7 }) })
	t.Run("int64", func(t *testing.T) { roundTripKeys(t, func(i int) int64 { return int64(i-200) * (1 << 40) }) })
	t.Run("uint", func(t *testing.T) { roundTripKeys(t, func(i int) uint { return 1<<63 + uint(i-200)*13 }) })
	t.Run("uint32", func(t *testing.T) { roundTripKeys(t, func(i int) uint32 { return 1<<31 + uint32(i-200)*17 }) })
	t.Run("uint64", func(t *testing.T) { roundTripKeys(t, func(i int) uint64 { return 1<<63 + uint64(i-200)*19 }) })
}

// TestMix64MatchesYCSB: the root's Mix64, the default shard hash for integer
// keys, is the same function as the workload generators' ycsb.Mix64, so
// every workload routes its keys to the same shards through either: 5 000
// sequential inputs and 5 000 drawn from a SplitMix64 stream.
func TestMix64MatchesYCSB(t *testing.T) {
	rng := ycsb.NewSplitMix64(1)
	for i := range uint64(10_000) {
		x := i
		if i >= 5_000 {
			x = rng.Next()
		}
		if got, want := mvgc.Mix64(x), ycsb.Mix64(x); got != want {
			t.Fatalf("Mix64(%#x) = %#x, ycsb.Mix64 = %#x", x, got, want)
		}
	}
}

// TestCustomCmpKeepsItsOrder: a caller's ordering is the ordering, even over
// a key type the tree has kernels for.  int64 keys under a REVERSED Cmp must
// scan descending and read, write, batch and transact as a map model says;
// a tree that compared the keys directly would scan ascending and lose
// every key it searched for.
func TestCustomCmpKeepsItsOrder(t *testing.T) {
	db, err := mvgc.OpenPlainDB[int64, int64](mvgc.DBOptions[int64]{
		Shards: 2, Procs: 2,
		Cmp: func(a, b int64) int { return cmp.Compare(b, a) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[int64]int64{}
	check := func(what string) {
		t.Helper()
		keys := make([]int64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b int64) int { return cmp.Compare(b, a) })
		var got []int64
		db.View(func(s mvgc.DBSnapshot[int64, int64, struct{}]) {
			s.ForEachCond(func(k, v int64) bool {
				if v != ref[k] {
					t.Fatalf("%s: ForEachCond saw %d=%d, want %d", what, k, v, ref[k])
				}
				got = append(got, k)
				return true
			})
			// A scan runs DOWN: from a key present, and from one above
			// every key, which in this order is before the first.
			for at, from := range map[int]int64{5: keys[5], 0: 1000} {
				i := 0
				s.ScanFunc(from, 4, func(k, _ int64) bool {
					if k != keys[at+i] {
						t.Fatalf("%s: ScanFunc(%d, 4)[%d] = %d, want %d", what, from, i, k, keys[at+i])
					}
					i++
					return true
				})
			}
		})
		if !slices.Equal(got, keys) {
			t.Fatalf("%s: ForEachCond order %v, want descending %v", what, got, keys)
		}
		probes := make([]int64, 0, 600)
		for k := int64(-300); k < 300; k++ {
			probes = append(probes, k)
		}
		vals, found := make([]int64, len(probes)), make([]bool, len(probes))
		db.GetBatch(probes, vals, found)
		for i, k := range probes {
			v, ok := db.Get(k)
			if want, wantOK := ref[k]; ok != wantOK || v != want || found[i] != ok || vals[i] != v {
				t.Fatalf("%s: Get(%d) = %d,%v, GetBatch %d,%v, want %d,%v", what, k, v, ok, vals[i], found[i], want, wantOK)
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	key := func() int64 { return int64(rng.Intn(500) - 250) }
	for i := int64(0); i < 300; i++ {
		k := key()
		db.Insert(k, i)
		ref[k] = i
	}
	check("Insert")
	for i := 0; i < 100; i++ {
		k := key()
		db.Delete(k)
		delete(ref, k)
	}
	check("Delete")
	sum := func(old, new int64) int64 { return old + new }
	for round := int64(1); round <= 3; round++ {
		batch := make([]mvgc.Entry[int64, int64], 150) // unsorted, with duplicates
		for i := range batch {
			batch[i] = mvgc.Entry[int64, int64]{Key: key(), Val: round}
			ref[batch[i].Key] += round
		}
		if err := db.InsertBatch(batch, sum); err != nil {
			t.Fatal(err)
		}
	}
	check("InsertBatch")
	for i := 0; i < 50; i++ {
		a, b := key(), key()
		if a == b {
			continue
		}
		err := db.UpdateAtomicKeys([]int64{a, b}, func(tx *mvgc.DBTxn[int64, int64, struct{}]) {
			va, _ := tx.Get(a)
			vb, _ := tx.Get(b)
			tx.Insert(a, vb+1)
			tx.Insert(b, va-1)
		})
		if err != nil {
			t.Fatal(err)
		}
		ref[a], ref[b] = ref[b]+1, ref[a]-1
	}
	check("UpdateAtomicKeys")
	db.Close()
	if live := db.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestAutoHashCmpUnsupported pins the documented errors for key types
// without built-in hashing or ordering.
func TestAutoHashCmpUnsupported(t *testing.T) {
	// No Hash, unsupported kind → the autoHash error.
	_, err := mvgc.OpenPlainDB[float64, int](mvgc.DBOptions[float64]{}, nil)
	if err == nil || !strings.Contains(err.Error(), "DBOptions.Hash is required") {
		t.Fatalf("float64 keys without Hash: err = %v", err)
	}
	// Hash supplied but no Cmp, unsupported kind → the autoCmp error.
	_, err = mvgc.OpenPlainDB[float64, int](mvgc.DBOptions[float64]{
		Hash: func(k float64) uint64 { return uint64(k) },
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "DBOptions.Cmp is required") {
		t.Fatalf("float64 keys without Cmp: err = %v", err)
	}
	// Both supplied → the key type is fine after all.
	db, err := mvgc.OpenPlainDB[float64, int](mvgc.DBOptions[float64]{
		Shards: 2, Procs: 2,
		Hash: func(k float64) uint64 { return uint64(k * 8) },
		Cmp: func(a, b float64) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Insert(1.5, 10)
	if v, ok := db.Get(1.5); !ok || v != 10 {
		t.Fatalf("Get(1.5) = %d,%v", v, ok)
	}
	db.Close()
}

// TestDBPointOpContention hammers the point-op lease path the way a
// goroutine-per-request server would: GOMAXPROCS×4 goroutines of mixed
// point ops per shard count.  The no-double-lease property itself is
// asserted at the core layer (TestLeaseExclusive); here the
// observable contract is checked end to end — every committed write is
// readable and per-shard precise GC reports zero leaks — under -race.
func TestDBPointOpContention(t *testing.T) {
	goroutines := runtime.GOMAXPROCS(0) * 4
	const iters = 500
	for _, shards := range []int{1, 4} {
		db, err := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{Shards: shards, Procs: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					k := uint64(g*iters + i)
					switch i % 4 {
					// Keys are per-goroutine, so each goroutine sees its own
					// ops in order: the i%4==0 insert must be visible at
					// i%4==2, and the i%4==1 insert really exists when the
					// i%4==3 delete removes it.
					case 0, 1:
						db.Insert(k, k+1)
					case 2:
						if v, ok := db.Get(k - 2); !ok || v != k-1 {
							t.Errorf("Get(%d) = %d,%v want %d", k-2, v, ok, k-1)
						}
					case 3:
						db.Delete(k - 2)
					}
				}
			}(g)
		}
		wg.Wait()
		for g := 0; g < goroutines; g++ {
			ins := uint64(g * iters) // i%4==0: inserted, never deleted
			if v, ok := db.Get(ins); !ok || v != ins+1 {
				t.Errorf("shards=%d: Get(%d) = %d,%v want %d", shards, ins, v, ok, ins+1)
			}
			del := uint64(g*iters + 1) // i%4==1: inserted, then deleted at i%4==3
			if v, ok := db.Get(del); ok {
				t.Errorf("shards=%d: Get(%d) = %d, want deleted", shards, del, v)
			}
		}
		db.Close()
		if live := db.Live(); live != 0 {
			t.Fatalf("shards=%d: leaked %d nodes", shards, live)
		}
	}
}

// TestDBMethodSet pins DB's exported methods: the store and the counters a
// caller reads, nothing of the log, replication or per-shard plumbing that
// internal/shard keeps for its own packages.
func TestDBMethodSet(t *testing.T) {
	want := []string{
		"Aborts", "Checkpoint", "Close", "CommitEach", "Commits", "ConsistentStats",
		"Delete", "Get", "GetBatch", "Has", "Insert", "InsertBatch", "InsertWith",
		"Len", "Live", "NumShards", "OCCAborts", "ShardFor", "Uncollected",
		"UpdateAtomic", "UpdateAtomicKeys", "View", "ViewConsistent", "WALStats",
	}
	typ := reflect.TypeOf((*mvgc.DB[uint64, uint64, struct{}])(nil))
	var got []string
	for i := range typ.NumMethod() {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("DB has %d methods %v, want %d %v", len(got), got, len(want), want)
	}
}

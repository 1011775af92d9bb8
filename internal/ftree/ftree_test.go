package ftree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intOps(grain int) *Ops[int64, int64, int64] {
	return New[int64, int64, int64](IntCmp[int64], SumAug[int64](), grain)
}

func augEq(a, b int64) bool { return a == b }

// checkExact asserts the GC-exactness invariant: the allocated space equals
// the space reachable from the given live roots (Definitions 2.1 + 2.2 at
// node granularity).
func checkExact(t *testing.T, o *Ops[int64, int64, int64], roots ...*Node[int64, int64, int64]) {
	t.Helper()
	if live, reach := o.Live(), o.ReachableNodes(roots...); live != reach {
		t.Fatalf("allocated space %d ≠ reachable space %d", live, reach)
	}
}

func TestEmptyTree(t *testing.T) {
	o := intOps(0)
	if o.Size(nil) != 0 {
		t.Fatal("empty size")
	}
	if _, ok := o.Find(nil, 1); ok {
		t.Fatal("find in empty")
	}
	if got := o.AugRange(nil, 0, 100); got != 0 {
		t.Fatalf("empty range sum = %d", got)
	}
	if _, ok := o.Min(nil); ok {
		t.Fatal("min of empty")
	}
	d := o.Delete(nil, 1)
	if d != nil {
		t.Fatal("delete from empty")
	}
}

func TestInsertFindDelete(t *testing.T) {
	o := intOps(0)
	var root *Node[int64, int64, int64]
	ref := map[int64]int64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		k := int64(rng.Intn(1000))
		switch rng.Intn(3) {
		case 0, 1:
			v := int64(rng.Intn(1 << 20))
			nr := o.Insert(root, k, v)
			o.Release(root)
			root = nr
			ref[k] = v
		case 2:
			nr := o.Delete(root, k)
			o.Release(root)
			root = nr
			delete(ref, k)
		}
		if i%500 == 0 {
			if err := o.Validate(root, augEq); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			checkExact(t, o, root)
		}
	}
	if o.Size(root) != int64(len(ref)) {
		t.Fatalf("size %d, want %d", o.Size(root), len(ref))
	}
	for k, v := range ref {
		got, ok := o.Find(root, k)
		if !ok || got != v {
			t.Fatalf("find(%d) = %d,%v want %d", k, got, ok, v)
		}
	}
	o.Release(root)
	checkExact(t, o)
}

// TestPersistence: updating a tree must leave every older version's
// contents bit-for-bit intact.
func TestPersistence(t *testing.T) {
	o := intOps(0)
	type snap struct {
		root *Node[int64, int64, int64]
		ref  map[int64]int64
	}
	var root *Node[int64, int64, int64]
	ref := map[int64]int64{}
	var snaps []snap
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		for j := 0; j < 20; j++ {
			k, v := int64(rng.Intn(300)), int64(rng.Intn(1000))
			nr := o.Insert(root, k, v)
			o.Release(root)
			root = nr
			ref[k] = v
			if rng.Intn(4) == 0 {
				k := int64(rng.Intn(300))
				nr := o.Delete(root, k)
				o.Release(root)
				root = nr
				delete(ref, k)
			}
		}
		cp := make(map[int64]int64, len(ref))
		for k, v := range ref {
			cp[k] = v
		}
		snaps = append(snaps, snap{o.share(root), cp})
	}
	// Every snapshot must still read exactly as it did when taken.
	for i, s := range snaps {
		if o.Size(s.root) != int64(len(s.ref)) {
			t.Fatalf("snapshot %d: size %d want %d", i, o.Size(s.root), len(s.ref))
		}
		for k, v := range s.ref {
			if got, ok := o.Find(s.root, k); !ok || got != v {
				t.Fatalf("snapshot %d: find(%d) = %d,%v want %d", i, k, got, ok, v)
			}
		}
	}
	// Release snapshots in random order; accounting must stay exact.
	roots := []*Node[int64, int64, int64]{root}
	for _, s := range snaps {
		roots = append(roots, s.root)
	}
	rng.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
	for len(roots) > 0 {
		o.Release(roots[len(roots)-1])
		roots = roots[:len(roots)-1]
		checkExact(t, o, roots...)
	}
	if o.Live() != 0 {
		t.Fatalf("%d nodes leaked", o.Live())
	}
}

func TestBalanceInvariant(t *testing.T) {
	o := intOps(0)
	var root *Node[int64, int64, int64]
	// Sorted insertion is the classic adversary for unbalanced BSTs.
	for i := int64(0); i < 20000; i++ {
		nr := o.Insert(root, i, i)
		o.Release(root)
		root = nr
	}
	if err := o.Validate(root, augEq); err != nil {
		t.Fatal(err)
	}
	h := o.Height(root)
	bound := int(3.5*math.Log2(20000)) + 2
	if h > bound {
		t.Fatalf("height %d exceeds BB[1/4] bound %d", h, bound)
	}
	o.Release(root)
	checkExact(t, o)
}

// TestJoinExtremeSizes joins trees of wildly different weights, the case
// where naive rotation heuristics break the weight-balance invariant.
func TestJoinExtremeSizes(t *testing.T) {
	for _, sizes := range [][2]int64{{1, 100000}, {100000, 1}, {3, 50000}, {50000, 3}, {0, 10000}, {10000, 0}} {
		o := intOps(0)
		var l, r *Node[int64, int64, int64]
		for i := int64(0); i < sizes[0]; i++ {
			nr := o.Insert(l, i, i)
			o.Release(l)
			l = nr
		}
		for i := int64(0); i < sizes[1]; i++ {
			k := 1_000_000 + i
			nr := o.Insert(r, k, k)
			o.Release(r)
			r = nr
		}
		j := o.Join(l, 500_000, 0, r)
		if err := o.Validate(j, augEq); err != nil {
			t.Fatalf("join %v: %v", sizes, err)
		}
		if o.Size(j) != sizes[0]+sizes[1]+1 {
			t.Fatalf("join size %d", o.Size(j))
		}
		o.Release(j)
		checkExact(t, o)
	}
}

func TestSplit(t *testing.T) {
	o := intOps(0)
	var root *Node[int64, int64, int64]
	for i := int64(0); i < 1000; i += 2 { // even keys
		nr := o.Insert(root, i, i*10)
		o.Release(root)
		root = nr
	}
	for _, k := range []int64{-1, 0, 1, 499, 500, 999, 1000} {
		l, r, found, fv := o.Split(root, k)
		wantFound := k >= 0 && k < 1000 && k%2 == 0
		if found != wantFound {
			t.Fatalf("split(%d): found=%v want %v", k, found, wantFound)
		}
		if found && fv != k*10 {
			t.Fatalf("split(%d): value %d", k, fv)
		}
		o.ForEach(l, func(kk, _ int64) {
			if kk >= k {
				t.Fatalf("split(%d): %d in left", k, kk)
			}
		})
		o.ForEach(r, func(kk, _ int64) {
			if kk <= k {
				t.Fatalf("split(%d): %d in right", k, kk)
			}
		})
		if err := o.Validate(l, augEq); err != nil {
			t.Fatal(err)
		}
		if err := o.Validate(r, augEq); err != nil {
			t.Fatal(err)
		}
		o.Release(l)
		o.Release(r)
		checkExact(t, o, root)
	}
	o.Release(root)
	checkExact(t, o)
}

func buildRandom(o *Ops[int64, int64, int64], rng *rand.Rand, n int, keyRange int64) (*Node[int64, int64, int64], map[int64]int64) {
	var root *Node[int64, int64, int64]
	ref := map[int64]int64{}
	for i := 0; i < n; i++ {
		k, v := rng.Int63n(keyRange), rng.Int63n(1<<30)
		nr := o.Insert(root, k, v)
		o.Release(root)
		root = nr
		ref[k] = v
	}
	return root, ref
}

func TestSetOperations(t *testing.T) {
	for _, grain := range []int{0, 8} { // sequential and parallel
		rng := rand.New(rand.NewSource(3))
		o := intOps(grain)
		a, refA := buildRandom(o, rng, 800, 1000)
		b, refB := buildRandom(o, rng, 600, 1000)

		comb := func(x, y int64) int64 { return x + y }
		u := o.Union(a, b, comb)
		wantU := map[int64]int64{}
		for k, v := range refA {
			wantU[k] = v
		}
		for k, v := range refB {
			if av, ok := refA[k]; ok {
				wantU[k] = comb(av, v)
			} else {
				wantU[k] = v
			}
		}
		assertTreeEquals(t, o, u, wantU)

		i := o.Intersect(a, b, comb)
		wantI := map[int64]int64{}
		for k, av := range refA {
			if bv, ok := refB[k]; ok {
				wantI[k] = comb(av, bv)
			}
		}
		assertTreeEquals(t, o, i, wantI)

		d := o.Difference(a, b)
		wantD := map[int64]int64{}
		for k, av := range refA {
			if _, ok := refB[k]; !ok {
				wantD[k] = av
			}
		}
		assertTreeEquals(t, o, d, wantD)

		for _, r := range []*Node[int64, int64, int64]{u, i, d} {
			if err := o.Validate(r, augEq); err != nil {
				t.Fatal(err)
			}
		}
		checkExact(t, o, a, b, u, i, d)
		for _, r := range []*Node[int64, int64, int64]{a, b, u, i, d} {
			o.Release(r)
		}
		checkExact(t, o)
	}
}

func assertTreeEquals(t *testing.T, o *Ops[int64, int64, int64], root *Node[int64, int64, int64], want map[int64]int64) {
	t.Helper()
	if o.Size(root) != int64(len(want)) {
		t.Fatalf("size %d, want %d", o.Size(root), len(want))
	}
	o.ForEach(root, func(k, v int64) {
		if want[k] != v {
			t.Fatalf("key %d = %d, want %d", k, v, want[k])
		}
	})
}

func TestMultiInsert(t *testing.T) {
	for _, grain := range []int{0, 16} {
		rng := rand.New(rand.NewSource(4))
		o := intOps(grain)
		root, ref := buildRandom(o, rng, 500, 2000)
		batch := make([]Entry[int64, int64], 700)
		for i := range batch {
			batch[i] = Entry[int64, int64]{rng.Int63n(2000), rng.Int63n(1 << 20)}
		}
		// Reference: apply in order with overwrite semantics.
		for _, e := range batch {
			ref[e.Key] = e.Val
		}
		nr := o.MultiInsert(root, append([]Entry[int64, int64](nil), batch...), nil)
		assertTreeEquals(t, o, nr, ref)
		if err := o.Validate(nr, augEq); err != nil {
			t.Fatal(err)
		}
		checkExact(t, o, root, nr)
		o.Release(root)
		o.Release(nr)
		checkExact(t, o)
	}
}

func TestMultiInsertCombine(t *testing.T) {
	o := intOps(0)
	var root *Node[int64, int64, int64]
	nr := o.MultiInsert(root, []Entry[int64, int64]{{1, 1}, {1, 2}, {1, 4}, {2, 10}}, func(old, new int64) int64 { return old + new })
	if v, _ := o.Find(nr, 1); v != 7 {
		t.Fatalf("combined duplicate batch value = %d, want 7", v)
	}
	nr2 := o.MultiInsert(nr, []Entry[int64, int64]{{1, 100}, {2, 1}}, func(old, new int64) int64 { return old + new })
	if v, _ := o.Find(nr2, 1); v != 107 {
		t.Fatalf("tree+batch combine = %d, want 107", v)
	}
	if v, _ := o.Find(nr2, 2); v != 11 {
		t.Fatalf("tree+batch combine = %d, want 11", v)
	}
	o.Release(nr)
	o.Release(nr2)
	checkExact(t, o)
}

func TestMultiDelete(t *testing.T) {
	o := intOps(0)
	rng := rand.New(rand.NewSource(5))
	root, ref := buildRandom(o, rng, 400, 600)
	var keys []int64
	for i := 0; i < 200; i++ {
		k := rng.Int63n(600)
		keys = append(keys, k)
		delete(ref, k)
	}
	nr := o.MultiDelete(root, keys)
	assertTreeEquals(t, o, nr, ref)
	o.Release(root)
	o.Release(nr)
	checkExact(t, o)
}

func TestAugRangeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	o := intOps(0)
	root, ref := buildRandom(o, rng, 1000, 5000)
	type kv struct{ k, v int64 }
	var all []kv
	for k, v := range ref {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	for trial := 0; trial < 500; trial++ {
		lo := rng.Int63n(5500) - 250
		hi := lo + rng.Int63n(2000)
		var want int64
		for _, e := range all {
			if e.k >= lo && e.k <= hi {
				want += e.v
			}
		}
		if got := o.AugRange(root, lo, hi); got != want {
			t.Fatalf("AugRange(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
	o.Release(root)
}

func TestSelectRank(t *testing.T) {
	o := intOps(0)
	var root *Node[int64, int64, int64]
	for i := int64(0); i < 100; i++ {
		nr := o.Insert(root, i*2, i)
		o.Release(root)
		root = nr
	}
	for i := int64(0); i < 100; i++ {
		e, ok := o.Select(root, i)
		if !ok || e.Key != i*2 {
			t.Fatalf("select(%d) = %v,%v", i, e, ok)
		}
	}
	if _, ok := o.Select(root, 100); ok {
		t.Fatal("select out of range succeeded")
	}
	if r := o.Rank(root, 50); r != 25 {
		t.Fatalf("rank(50) = %d, want 25", r)
	}
	if r := o.Rank(root, 51); r != 26 {
		t.Fatalf("rank(51) = %d, want 26", r)
	}
	if r := o.Rank(root, -5); r != 0 {
		t.Fatalf("rank(-5) = %d", r)
	}
	if r := o.Rank(root, 1000); r != 100 {
		t.Fatalf("rank(1000) = %d", r)
	}
	o.Release(root)
}

func TestRangeEntries(t *testing.T) {
	o := intOps(0)
	var root *Node[int64, int64, int64]
	for i := int64(0); i < 50; i++ {
		nr := o.Insert(root, i, i)
		o.Release(root)
		root = nr
	}
	got := o.RangeEntries(root, 10, 20)
	if len(got) != 11 || got[0].Key != 10 || got[10].Key != 20 {
		t.Fatalf("range [10,20] = %v", got)
	}
	o.Release(root)
}

// TestDoubleReleasePanics: the poisoned refcount must catch a double
// collect, which would be a GC-safety bug in the transaction layer.  The
// sole-owner fast path frees on a count of 1 without decrementing; a freed
// root's count is the poison, not 1, so the second Release still reaches
// the decrement — whether the root is a leaf or an internal node, freed to
// the garbage collector, the depot or a magazine.
func TestDoubleReleasePanics(t *testing.T) {
	for _, c := range []struct {
		name           string
		n              int
		recycle, bound bool
	}{
		{"leaf", 1, false, false},
		{"internal", 4 * leafMax, false, false},
		{"leaf/depot", 1, true, false},
		{"internal/magazine", 4 * leafMax, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := intOps(0)
			o.Recycle = c.recycle
			if c.bound {
				o = o.Bound(o.NewArena())
			}
			root := o.Build(seqEntries(c.n))
			o.Release(root)
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on double release")
				}
			}()
			o.Release(root)
		})
	}
}

// TestNoStealMatchesSteal: the decompose fast path is a pure optimization;
// results and accounting must be identical with it disabled.
func TestNoStealMatchesSteal(t *testing.T) {
	for _, noSteal := range []bool{false, true} {
		o := intOps(0)
		o.NoSteal = noSteal
		rng := rand.New(rand.NewSource(9))
		a, refA := buildRandom(o, rng, 300, 500)
		b, refB := buildRandom(o, rng, 300, 500)
		u := o.Union(a, b, nil)
		want := map[int64]int64{}
		for k, v := range refA {
			want[k] = v
		}
		for k, v := range refB {
			want[k] = v
		}
		assertTreeEquals(t, o, u, want)
		o.Release(a)
		o.Release(b)
		o.Release(u)
		checkExact(t, o)
	}
}

// TestQuickRandomHistories drives random persistent-op histories with
// version retention and random release order, asserting exact space
// accounting throughout — the node-granularity analogue of the paper's
// precise-GC theorem.
func TestQuickRandomHistories(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := intOps(0)
		var roots []*Node[int64, int64, int64]
		var cur *Node[int64, int64, int64]
		for step := 0; step < 200; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // insert
				nr := o.Insert(cur, rng.Int63n(200), rng.Int63())
				o.Release(cur)
				cur = nr
			case 5, 6: // delete
				nr := o.Delete(cur, rng.Int63n(200))
				o.Release(cur)
				cur = nr
			case 7: // snapshot
				roots = append(roots, o.share(cur))
			case 8: // drop a random snapshot
				if len(roots) > 0 {
					i := rng.Intn(len(roots))
					o.Release(roots[i])
					roots[i] = roots[len(roots)-1]
					roots = roots[:len(roots)-1]
				}
			case 9: // batch insert
				n := rng.Intn(20)
				batch := make([]Entry[int64, int64], n)
				for i := range batch {
					batch[i] = Entry[int64, int64]{rng.Int63n(200), rng.Int63()}
				}
				nr := o.MultiInsert(cur, batch, nil)
				o.Release(cur)
				cur = nr
			}
		}
		all := append(append([]*Node[int64, int64, int64]{}, roots...), cur)
		if o.Live() != o.ReachableNodes(all...) {
			return false
		}
		for _, r := range all {
			o.Release(r)
		}
		return o.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelMatchesSequential: the same operations with an aggressive
// parallel grain must produce identical contents and exact accounting.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seqO := intOps(0)
	parO := intOps(4)
	mkBatch := func() []Entry[int64, int64] {
		batch := make([]Entry[int64, int64], 3000)
		for i := range batch {
			batch[i] = Entry[int64, int64]{rng.Int63n(10000), rng.Int63n(1 << 20)}
		}
		return batch
	}
	b1, b2 := mkBatch(), mkBatch()
	seqR := seqO.MultiInsert(nil, append([]Entry[int64, int64](nil), b1...), nil)
	seqR2 := seqO.MultiInsert(seqR, append([]Entry[int64, int64](nil), b2...), nil)
	parR := parO.MultiInsert(nil, append([]Entry[int64, int64](nil), b1...), nil)
	parR2 := parO.MultiInsert(parR, append([]Entry[int64, int64](nil), b2...), nil)

	se := seqO.Entries(seqR2)
	pe := parO.Entries(parR2)
	if len(se) != len(pe) {
		t.Fatalf("sizes differ: %d vs %d", len(se), len(pe))
	}
	for i := range se {
		if se[i] != pe[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, se[i], pe[i])
		}
	}
	if err := parO.Validate(parR2, augEq); err != nil {
		t.Fatal(err)
	}
	parO.Release(parR)
	parO.Release(parR2)
	if parO.Live() != 0 {
		t.Fatalf("parallel run leaked %d nodes", parO.Live())
	}
	seqO.Release(seqR)
	seqO.Release(seqR2)
}

// TestConcurrentReadersDuringUpdates: readers traverse immutable snapshots
// with no synchronization while a writer path-copies new versions — the
// foundation of the paper's delay-free reads.
func TestConcurrentReadersDuringUpdates(t *testing.T) {
	o := intOps(0)
	var root *Node[int64, int64, int64]
	for i := int64(0); i < 10000; i += 2 {
		nr := o.Insert(root, i, 1)
		o.Release(root)
		root = nr
	}
	snap := o.share(root) // reader's pinned version
	done := make(chan int64)
	go func() {
		// Reader: sum via augmented range queries; the answer must be
		// stable no matter what the writer does.
		var bad int64
		for i := 0; i < 200; i++ {
			if got := o.AugRange(snap, 0, 10000); got != 5000 {
				bad = got
				break
			}
		}
		done <- bad
	}()
	cur := o.share(root)
	for i := int64(1); i < 2000; i += 2 { // odd keys, interleaved with reads
		nr := o.Insert(cur, i, 100)
		o.Release(cur)
		cur = nr
	}
	if bad := <-done; bad != 0 {
		t.Fatalf("reader observed a mutating snapshot: sum=%d", bad)
	}
	o.Release(snap)
	o.Release(cur)
	o.Release(root)
	checkExact(t, o)
}

func TestMaxAug(t *testing.T) {
	o := New[int64, int64, int64](IntCmp[int64], MaxAug[int64](), 0)
	var root *Node[int64, int64, int64]
	rng := rand.New(rand.NewSource(12))
	ref := map[int64]int64{}
	for i := 0; i < 500; i++ {
		k, v := rng.Int63n(1000), rng.Int63n(1<<30)
		nr := o.Insert(root, k, v)
		o.Release(root)
		root = nr
		ref[k] = v
	}
	for trial := 0; trial < 100; trial++ {
		lo := rng.Int63n(1000)
		hi := lo + rng.Int63n(300)
		want := int64(-1 << 62)
		any := false
		for k, v := range ref {
			if k >= lo && k <= hi && v > want {
				want, any = v, true
			}
		}
		got := o.AugRange(root, lo, hi)
		if any && got != want {
			t.Fatalf("max in [%d,%d] = %d, want %d", lo, hi, got, want)
		}
		if !any && got != -1<<62 {
			t.Fatalf("max of empty range = %d", got)
		}
	}
	o.Release(root)
}

func TestForEachCond(t *testing.T) {
	o := intOps(0)
	var root *Node[int64, int64, int64]
	for i := int64(0); i < 100; i++ {
		nr := o.Insert(root, i, i)
		o.Release(root)
		root = nr
	}
	var n int
	complete := o.ForEachCond(root, func(k, _ int64) bool {
		n++
		return k < 49 // returns false at key 49, after visiting it
	})
	if complete || n != 50 {
		t.Fatalf("ForEachCond stopped after %d (complete=%v), want 50", n, complete)
	}
	o.Release(root)
}

// TestRecycleCorrectness re-runs the random-history property with node
// recycling enabled: recycled nodes must behave exactly like fresh ones,
// and accounting stays exact (a recycled node counts as a new alloc).
func TestRecycleCorrectness(t *testing.T) {
	o := intOps(0)
	o.Recycle = true
	rng := rand.New(rand.NewSource(21))
	var root *Node[int64, int64, int64]
	ref := map[int64]int64{}
	var snaps []*Node[int64, int64, int64]
	for i := 0; i < 6000; i++ {
		k := int64(rng.Intn(500))
		switch rng.Intn(4) {
		case 0, 1:
			v := rng.Int63n(1 << 20)
			nr := o.Insert(root, k, v)
			o.Release(root)
			root = nr
			ref[k] = v
		case 2:
			nr := o.Delete(root, k)
			o.Release(root)
			root = nr
			delete(ref, k)
		case 3:
			if len(snaps) < 4 {
				snaps = append(snaps, o.share(root))
			} else {
				o.Release(snaps[0])
				snaps = snaps[1:]
			}
		}
		if i%1000 == 0 {
			if err := o.Validate(root, augEq); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			all := append(append([]*Node[int64, int64, int64]{}, snaps...), root)
			if o.Live() != o.ReachableNodes(all...) {
				t.Fatalf("step %d: live %d ≠ reachable %d", i, o.Live(), o.ReachableNodes(all...))
			}
		}
	}
	for k, v := range ref {
		if got, ok := o.Find(root, k); !ok || got != v {
			t.Fatalf("find(%d) = %d,%v want %d", k, got, ok, v)
		}
	}
	for _, s := range snaps {
		o.Release(s)
	}
	o.Release(root)
	if o.Live() != 0 {
		t.Fatalf("leaked %d nodes with recycling", o.Live())
	}
}

// TestRecycleParallel: recycling under parallel bulk operations — free
// lists are shared across goroutines.
func TestRecycleParallel(t *testing.T) {
	o := intOps(64)
	o.Recycle = true
	rng := rand.New(rand.NewSource(22))
	var root *Node[int64, int64, int64]
	for round := 0; round < 30; round++ {
		batch := make([]Entry[int64, int64], 2000)
		for i := range batch {
			batch[i] = Entry[int64, int64]{rng.Int63n(10000), rng.Int63n(1 << 20)}
		}
		nr := o.MultiInsert(root, batch, nil)
		o.Release(root)
		root = nr
	}
	if err := o.Validate(root, augEq); err != nil {
		t.Fatal(err)
	}
	o.Release(root)
	if o.Live() != 0 {
		t.Fatalf("leaked %d nodes", o.Live())
	}
}

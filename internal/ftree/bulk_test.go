package ftree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The batched descent against the per-key operations it must equal.

// bulkBase is where a base tree's keys start; they are spaced two apart, so
// a scattered batch lands between them as well as on them.
const bulkBase = 1 << 20

var bulkShapes = []string{"appended", "prepended", "scattered", "existing"}

// bulkKeys returns m batch keys of the given shape against a base tree of n
// keys bulkBase, bulkBase+2, ...: above all of them, below all of them,
// drawn at random from a range that covers them (so some hit, some fall
// between, and a large batch repeats itself), or all already present.
func bulkKeys(rng *rand.Rand, shape string, n, m int) []int64 {
	ks := make([]int64, m)
	for i := range ks {
		switch {
		case shape == "appended":
			ks[i] = bulkBase + 2*int64(n) + int64(i)
		case shape == "prepended":
			ks[i] = int64(i)
		case shape == "existing" && n > 0:
			ks[i] = bulkBase + 2*rng.Int63n(int64(n))
		default:
			ks[i] = bulkBase - int64(m) + rng.Int63n(2*int64(n+m))
		}
	}
	return ks
}

// bulkConfig is one row of the ablation cross: a grain and the three
// switches.
type bulkConfig struct {
	grain                  int
	comb, noSteal, recycle bool
}

func (c bulkConfig) String() string {
	return fmt.Sprintf("grain=%d/comb=%v/noSteal=%v/recycle=%v", c.grain, c.comb, c.noSteal, c.recycle)
}

// bulkConfigs crosses Grain 0 / 8 / 1024 with ± comb, ± NoSteal and
// ± Recycle.  The race lane keeps the Grain 8 rows: they are the ones that
// fork, and a forked half must take the unbound root, never the arena.
func bulkConfigs() []bulkConfig {
	var out []bulkConfig
	for _, g := range []int{0, 8, 1024} {
		if raceEnabled && g != 8 {
			continue
		}
		for bits := 0; bits < 8; bits++ {
			out = append(out, bulkConfig{g, bits&1 != 0, bits&2 != 0, bits&4 != 0})
		}
	}
	return out
}

// bulkMatrix drives MultiInsert and MultiDelete on an arena-bound view
// over every (tree size, batch size, shape) against per-key InsertWith and
// Delete applied to a snapshot of the same base: equal contents, clean
// structure, and exactly the reachable units allocated at every stage and
// none after the last release.  val makes the owned value the i-th batch
// entry carries (called once for each side, since both consume theirs);
// same compares two stored values; space, when set, checks the value
// family's own accounting against the live roots.
func bulkMatrix[V, A any](t *testing.T, cfg bulkConfig, mk func() *Ops[int64, V, A], trees, batches []int,
	val func(k int64, i int) V, comb func(old, new V) V, same func(a, b V) bool,
	augEqual func(a, b A) bool, space func(what string, roots ...*Node[int64, V, A])) {
	root := mk()
	root.Grain, root.NoSteal, root.Recycle = cfg.grain, cfg.noSteal, cfg.recycle
	o := root.Bound(root.NewArena())
	if !cfg.comb {
		comb = nil
	}
	rng := rand.New(rand.NewSource(int64(cfg.grain) + 1))
	for _, n := range trees {
		es := make([]Entry[int64, V], n)
		for i := range es {
			k := bulkBase + 2*int64(i)
			es[i] = Entry[int64, V]{k, val(k, -1)}
		}
		base := o.Build(es)
		for _, m := range batches {
			for _, shape := range bulkShapes {
				what := fmt.Sprintf("%v tree=%d batch=%d %s", cfg, n, m, shape)
				ks := bulkKeys(rng, shape, n, m)
				batch := make([]Entry[int64, V], m)
				want := o.share(base)
				for i, k := range ks {
					batch[i] = Entry[int64, V]{k, val(k, i)}
					next := o.InsertWith(want, k, val(k, i), comb)
					o.Release(want)
					want = next
				}
				got := o.MultiInsert(base, batch, comb)
				check := func(stage string, got, want *Node[int64, V, A], live ...*Node[int64, V, A]) {
					t.Helper()
					if err := o.Validate(got, augEqual); err != nil {
						t.Fatalf("%s, %s: %v", what, stage, err)
					}
					ge, we := o.Entries(got), o.Entries(want)
					if !slices.EqualFunc(ge, we, func(a, b Entry[int64, V]) bool { return a.Key == b.Key && same(a.Val, b.Val) }) {
						t.Fatalf("%s, %s: %d entries differ from the per-key result's %d", what, stage, len(ge), len(we))
					}
					if l, r := root.Live(), root.ReachableNodes(live...); l != r {
						t.Fatalf("%s, %s: %d units allocated, %d reachable", what, stage, l, r)
					}
					if space != nil {
						space(what+", "+stage, live...)
					}
				}
				check("insert", got, want, base, got, want)
				// Remove every other batch key, some of them twice.
				var dels []int64
				for i, k := range ks {
					if i%2 == 0 {
						dels = append(dels, k)
					}
					if i%8 == 0 {
						dels = append(dels, k)
					}
				}
				wantDel := o.share(want)
				for _, k := range dels {
					next := o.Delete(wantDel, k)
					o.Release(wantDel)
					wantDel = next
				}
				gotDel := o.MultiDelete(got, dels)
				check("delete", gotDel, wantDel, base, got, want, gotDel, wantDel)
				for _, r := range []*Node[int64, V, A]{got, want, gotDel, wantDel} {
					o.Release(r)
				}
			}
		}
		o.Release(base)
		if l := root.Live(); l != 0 {
			t.Fatalf("%v tree=%d: %d units live after the last release", cfg, n, l)
		}
		if space != nil {
			space(fmt.Sprintf("%v tree=%d, released", cfg, n))
		}
	}
}

// TestMultiInsertMatchesSequential is the matrix on plain values (summed
// under comb, with the sum augmentation validated) and on refcounted ones:
// inner trees, TestNestedLeafOwnership style, where the inner family's live
// space must be exactly the postings some live outer version holds.  The
// 70 000-entry batches and the 100 000-key tree run on plain values only,
// one row per grain.
func TestMultiInsertMatchesSequential(t *testing.T) {
	sum := func(a, b int64) int64 { return a + b }
	plain := func(k int64, i int) int64 { return k ^ int64(i) }
	eq := func(a, b int64) bool { return a == b }
	trees := []int{0, 1, 33, leafMax + 1, 10_000}
	batches := []int{0, 1, 31, 32, 33, leafMax, leafMax + 1, 1_000}
	big := map[int]bulkConfig{0: {0, true, false, true}, 8: {8, false, true, true}, 1024: {1024, true, true, false}}
	for _, cfg := range bulkConfigs() {
		mk := func() *Ops[int64, int64, int64] { return intOps(0) }
		bulkMatrix(t, cfg, mk, trees, batches, plain, sum, eq, augEq, nil)
		if cfg == big[cfg.grain] && !testing.Short() {
			bulkMatrix(t, cfg, mk, []int{33, 100_000}, []int{33, 70_000}, plain, sum, eq, augEq, nil)
		}

		inner, outer := nestedOps()
		posting := func(k int64, i int) *innerNode { return inner.Insert(nil, k, int64(i)) }
		keepOld := func(old, new *innerNode) *innerNode { inner.Release(new); return old }
		samePosting := func(a, b *innerNode) bool {
			return slices.Equal(inner.Entries(a), inner.Entries(b))
		}
		space := func(what string, roots ...*Node[int64, *innerNode, struct{}]) {
			t.Helper()
			if got, want := inner.Live(), innerLive(outer, roots...); got != want {
				t.Fatalf("%s: inner live %d, want %d", what, got, want)
			}
		}
		bulkMatrix(t, cfg, func() *Ops[int64, *innerNode, struct{}] { return outer },
			[]int{0, 1, 33, 1_000}, batches, posting, keepOld, samePosting, nil, space)
	}
}

// TestBatchCommitNoAlloc: combiner commits on an arena-bound view — a
// 1 000-key MultiDelete, then a 1 000-entry MultiInsert putting the keys
// back, each releasing the version it replaces — take nothing from the Go
// heap once warm: no second tree, no closure per level, no Entry per
// deleted key.  The two are measured as a pair so the tree, and with it the
// magazines, is the same size after every step.
func TestBatchCommitNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	o := arenaOps()
	bo := o.Bound(o.NewArena())
	const n, m = 50_000, 1_000
	root := bo.Build(seqEntries(n))
	batch := make([]Entry[int64, int64], m)
	keys := make([]int64, m)
	k := int64(0)
	commit := func(next *Node[int64, int64, int64]) {
		bo.Release(root)
		root = next
	}
	step := func() {
		for i := range batch {
			k = (k + 7919) % n
			batch[i], keys[i] = Entry[int64, int64]{(k + 1) * 10, k}, (k+1)*10
		}
		commit(bo.MultiDelete(root, keys))
		commit(bo.MultiInsert(root, batch, nil))
	}
	for i := 0; i < 20; i++ {
		step() // warm the magazines and the collector's stack
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("a warm %d-key MultiDelete and MultiInsert, each with its Release, allocate %.2f times per pair", m, allocs)
	}
	if got := bo.Size(root); got != n {
		t.Fatalf("size %d, want %d", got, n)
	}
	bo.Release(root)
	if o.Live() != 0 {
		t.Fatalf("leaked %d units", o.Live())
	}
}

// TestSortedBatchSkipsSort: a batch that arrives strictly ascending — every
// record a follower replays, since a leader logs what SortEntries returned —
// is found so in one pass of n−1 comparisons and handed on as it is, the
// sort never entered and nothing allocated, under either ordering; and a
// batch with duplicates as late as its last entry is still sorted stably
// and coalesced: the later duplicate wins, or comb folds left to right.
func TestSortedBatchSkipsSort(t *testing.T) {
	const n = 1_000
	compares := 0
	counting := New[int64, int64, int64](func(a, b int64) int { compares++; return IntCmp(a, b) }, SumAug[int64](), 0)
	natural, _ := NewNatural[int64, int64, int64](SumAug[int64](), 0)
	// An unsorted batch thick with duplicates comes out the same from the
	// sort through Cmp and from the direct one — on the unbound root, and on
	// a bound view, whose merge buffer a second sort reuses.
	rng := rand.New(rand.NewSource(29))
	shuffled := make([]Entry[int64, int64], 3*n)
	for i := range shuffled {
		shuffled[i] = Entry[int64, int64]{Key: int64(rng.Intn(n / 2)), Val: int64(i)}
	}
	ordered := func(old, new int64) int64 { return old*31 + new }
	bound := natural.Bound(natural.NewArena())
	for _, comb := range []func(old, new int64) int64{nil, ordered} {
		want := counting.SortEntries(slices.Clone(shuffled), comb)
		for name, o := range map[string]*Ops[int64, int64, int64]{"unbound": natural, "bound": bound, "bound again": bound} {
			if got := o.SortEntries(slices.Clone(shuffled), comb); !slices.Equal(got, want) {
				t.Fatalf("%s, comb %v: the direct sort and the sort through Cmp disagree", name, comb != nil)
			}
		}
	}
	if !raceEnabled {
		work := make([]Entry[int64, int64], len(shuffled))
		if allocs := testing.AllocsPerRun(20, func() { copy(work, shuffled); bound.SortEntries(work, nil) }); allocs != 0 {
			t.Fatalf("a warm sort on a bound view allocates %.1f times", allocs)
		}
	}

	for name, o := range map[string]*Ops[int64, int64, int64]{"by Cmp": counting, "direct": natural} {
		batch := seqEntries(n)
		compares = 0
		got := o.SortEntries(batch, nil)
		if len(got) != n || &got[0] != &batch[0] || !slices.Equal(got, seqEntries(n)) {
			t.Fatalf("%s: an ascending batch came back changed", name)
		}
		if o == counting && compares != n-1 {
			t.Fatalf("an ascending batch of %d took %d comparisons, want %d", n, compares, n-1)
		}
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(20, func() { o.SortEntries(batch, nil) }); allocs != 0 {
				t.Fatalf("%s: SortEntries of an ascending batch allocates %.1f times", name, allocs)
			}
		}

		// The last entry repeats an early key, and so do two entries in
		// the middle: three values for key 70, in batch order 6, -1, -2.
		late := func() []Entry[int64, int64] {
			b := seqEntries(n)
			b[n/2], b[n-1] = Entry[int64, int64]{70, -1}, Entry[int64, int64]{70, -2}
			return b
		}
		want := seqEntries(n)
		want = slices.Delete(want, n/2, n/2+1)[:n-2]
		want[6].Val = -2
		if got := o.SortEntries(late(), nil); !slices.Equal(got, want) {
			t.Fatalf("%s: late duplicates, no comb: key 70 = %d in %d entries, want -2 in %d", name, got[6].Val, len(got), len(want))
		}
		want[6].Val = (6*10-1)*10 - 2
		if got := o.SortEntries(late(), func(old, new int64) int64 { return old*10 + new }); !slices.Equal(got, want) {
			t.Fatalf("%s: late duplicates under comb: key 70 = %d, want %d (left to right)", name, got[6].Val, want[6].Val)
		}
	}
}

// leafFills returns the fill of every leaf of borrowed tree t, in order.
func leafFills[K, V, A any](t *Node[K, V, A], fills []int) []int {
	switch {
	case t == nil:
		return fills
	case t.fill != 0:
		return append(fills, int(t.fill))
	}
	return leafFills(t.right, leafFills(t.left, fills))
}

// TestBuildFillNoCliff: Build cuts any input into the fewest leaves that
// hold it, filled within one entry of each other — at and around the
// lengths (leafMax+1)·2^k where halving until a run fits a leaf jumps from
// full leaves to half-empty ones, and at 600 000 and 1 100 000, between
// those jumps.
func TestBuildFillNoCliff(t *testing.T) {
	var ns []int
	for k := 4; k <= 15; k++ {
		for d := -2; d <= 2; d++ {
			ns = append(ns, (leafMax+1)<<k+d)
		}
	}
	ns = append(ns, 600_000, 1_100_000)
	for _, n := range ns {
		o := intOps(0)
		root := o.Build(seqEntries(n))
		if err := o.Validate(root, augEq); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		fills := leafFills(root, nil)
		lo, hi, sum := slices.Min(fills), slices.Max(fills), 0
		for _, f := range fills {
			sum += f
		}
		mean := float64(sum) / float64(len(fills))
		if len(fills) != leavesFor(n) || hi-lo > 1 || mean < 0.9*leafMax {
			t.Fatalf("n=%d: %d leaves (want %d) filled %d..%d, mean %.1f; want within one entry of each other, mean ≥ %.1f",
				n, len(fills), leavesFor(n), lo, hi, mean, 0.9*leafMax)
		}
		o.Release(root)
		checkExact(t, o)
	}
}

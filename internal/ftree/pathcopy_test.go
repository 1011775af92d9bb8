package ftree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refInsertWith and refDeleteFound are the point write as it was before the
// iterative path copy (descend and rebuild in tree.go) replaced it: one
// recursion per level, every level through Join.  They stay here, verbatim
// but for their names, as the reference TestPathCopyDifferential holds the
// iterative form to.

func (o *Ops[K, V, A]) refInsertWith(t *Node[K, V, A], k K, v V, comb func(old, new V) V) *Node[K, V, A] {
	if t == nil {
		return o.mk(nil, k, v, nil)
	}
	if t.fill != 0 {
		return o.leafInsert(t, k, v, comb)
	}
	c := o.Cmp(k, t.key)
	switch {
	case c == 0:
		if comb != nil {
			v = comb(o.retainVal(t.val), v)
		} // plain replace: the old value stays owned by the old node
		return o.mk(o.share(t.left), k, v, o.share(t.right))
	case c < 0:
		return o.Join(o.refInsertWith(t.left, k, v, comb), t.key, o.retainVal(t.val), o.share(t.right))
	default:
		return o.Join(o.share(t.left), t.key, o.retainVal(t.val), o.refInsertWith(t.right, k, v, comb))
	}
}

func (o *Ops[K, V, A]) refDelete(t *Node[K, V, A], k K) *Node[K, V, A] {
	if out, found := o.refDeleteFound(t, k); found {
		return out
	}
	return o.share(t)
}

func (o *Ops[K, V, A]) refDeleteFound(t *Node[K, V, A], k K) (out *Node[K, V, A], found bool) {
	if t == nil {
		return nil, false
	}
	if t.fill != 0 {
		return o.leafDelete(t, k)
	}
	c := o.Cmp(k, t.key)
	switch {
	case c == 0:
		return o.Join2(o.share(t.left), o.share(t.right)), true
	case c < 0:
		nl, ok := o.refDeleteFound(t.left, k)
		if !ok {
			return nil, false
		}
		return o.Join(nl, t.key, o.retainVal(t.val), o.share(t.right)), true
	default:
		nr, ok := o.refDeleteFound(t.right, k)
		if !ok {
			return nil, false
		}
		return o.Join(o.share(t.left), t.key, o.retainVal(t.val), nr), true
	}
}

// sameShape reports the first place trees a and b differ: node for node,
// leaf for leaf, entry for entry.  The trees may belong to different
// families; eq compares their values.
func sameShape[V, A any](a, b *Node[int64, V, A], eq func(a, b V) bool) error {
	if a == nil || b == nil {
		if a != b {
			return fmt.Errorf("one side is empty: %v, %v", a, b)
		}
		return nil
	}
	if (a.fill != 0) != (b.fill != 0) || size(a) != size(b) {
		return fmt.Errorf("leaf %v of %d entries against leaf %v of %d", a.fill != 0, size(a), b.fill != 0, size(b))
	}
	if a.fill != 0 {
		if a.narrow != b.narrow {
			return fmt.Errorf("leaf of %d entries narrow %v against %v", size(a), a.narrow, b.narrow)
		}
		for i := range int(a.fill) {
			if e, f := a.leafEntry(i), b.leafEntry(i); e.Key != f.Key || !eq(e.Val, f.Val) {
				return fmt.Errorf("leaf entry %d: %v against %v", i, e, f)
			}
		}
		return nil
	}
	if a.key != b.key || !eq(a.val, b.val) {
		return fmt.Errorf("internal entry (%v, %v) against (%v, %v)", a.key, a.val, b.key, b.val)
	}
	if err := sameShape(a.left, b.left, eq); err != nil {
		return err
	}
	return sameShape(a.right, b.right, eq)
}

// internalKey returns the key of an internal node of t picked by a random
// walk, or a random key when t has none.
func internalKey[V, A any](rng *rand.Rand, t *Node[int64, V, A], keyRange int64) int64 {
	if t == nil || t.fill != 0 {
		return rng.Int63n(keyRange)
	}
	for {
		next := t.left
		if rng.Intn(2) == 0 {
			next = t.right
		}
		if next.fill != 0 || rng.Intn(3) == 0 {
			return t.key
		}
		t = next
	}
}

// pathCopyDiff drives one seeded history of point writes through the
// recursive reference on family ref and through InsertWith and Delete on
// view got (a root or a bound view of a second family with the same
// configuration), snapshots and all, and after every step requires the two
// current trees equal shape for shape, got's tree valid, both families'
// allocated space exactly what their live roots reach, and the same number
// of units allocated and freed on both sides.  val mints the owned value
// step i stores, once per side; check, when set, is the caller's own
// invariant over all live roots of both sides.
func pathCopyDiff[V, A any](t *testing.T, seed, keyRange int64, steps int, ref, got *Ops[int64, V, A],
	val func(i int64) V, comb func(old, new V) V, eq func(a, b V) bool, augEq func(a, b A) bool,
	check func(roots []*Node[int64, V, A])) {
	t.Helper()
	type tree = *Node[int64, V, A]
	rng := rand.New(rand.NewSource(seed))
	var rcur, gcur tree
	var rsnaps, gsnaps []tree
	for i := int64(0); i < int64(steps); i++ {
		rnext, gnext := rcur, gcur
		step := func(what string, k int64, r, g tree) {
			t.Helper()
			rnext, gnext = r, g
			if err := sameShape(r, g, eq); err != nil {
				t.Fatalf("step %d, %s %d: %v", i, what, k, err)
			}
		}
		insert := func(what string, k int64, comb func(old, new V) V) {
			t.Helper()
			step(what, k, ref.refInsertWith(rcur, k, val(i), comb), got.InsertWith(gcur, k, val(i), comb))
		}
		remove := func(what string, k int64) {
			t.Helper()
			_, present := got.Find(gcur, k)
			allocs := got.Allocs()
			step(what, k, ref.refDelete(rcur, k), got.Delete(gcur, k))
			if !present && (gnext != gcur || got.Allocs() != allocs) {
				t.Fatalf("step %d, %s %d: absent key: same tree %v, %d units allocated", i, what, k, gnext == gcur, got.Allocs()-allocs)
			}
		}
		switch r := rng.Intn(100); {
		case r < 30:
			insert("insert", rng.Int63n(keyRange), nil)
		case r < 42:
			insert("insert-comb", rng.Int63n(keyRange), comb)
		case r < 47:
			insert("insert-internal", internalKey(rng, gcur, keyRange), nil)
		case r < 52:
			insert("insert-internal-comb", internalKey(rng, gcur, keyRange), comb)
		case r < 67:
			remove("delete", rng.Int63n(keyRange))
		case r < 80:
			k := rng.Int63n(keyRange)
			if e, ok := got.Select(gcur, rng.Int63n(got.Size(gcur)+1)); ok {
				k = e.Key
			}
			remove("delete-present", k)
		case r < 88:
			remove("delete-internal", internalKey(rng, gcur, keyRange))
		case r < 94:
			if len(gsnaps) < 6 {
				rsnaps, gsnaps = append(rsnaps, ref.share(rcur)), append(gsnaps, got.share(gcur))
			}
			continue
		default:
			if n := len(gsnaps); n > 0 {
				j := rng.Intn(n)
				ref.Release(rsnaps[j])
				got.Release(gsnaps[j])
				rsnaps[j], gsnaps[j] = rsnaps[n-1], gsnaps[n-1]
				rsnaps, gsnaps = rsnaps[:n-1], gsnaps[:n-1]
			}
			continue
		}
		ref.Release(rcur)
		got.Release(gcur)
		rcur, gcur = rnext, gnext
		if err := got.Validate(gcur, augEq); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		rroots, groots := append(rsnaps[:len(rsnaps):len(rsnaps)], rcur), append(gsnaps[:len(gsnaps):len(gsnaps)], gcur)
		if live, reach := got.Live(), got.ReachableNodes(groots...); live != reach {
			t.Fatalf("step %d: allocated %d ≠ reachable %d", i, live, reach)
		}
		if live, reach := ref.Live(), ref.ReachableNodes(rroots...); live != reach {
			t.Fatalf("step %d: reference allocated %d ≠ reachable %d", i, live, reach)
		}
		if ga, gf, ra, rf := got.Allocs(), got.Frees(), ref.Allocs(), ref.Frees(); ga != ra || gf != rf {
			t.Fatalf("step %d: %d units allocated and %d freed, the reference %d and %d", i, ga, gf, ra, rf)
		}
		if check != nil {
			check(append(rroots, groots...))
		}
	}
	for _, r := range append(rsnaps, rcur) {
		ref.Release(r)
	}
	for _, g := range append(gsnaps, gcur) {
		got.Release(g)
	}
	if ref.Live() != 0 || got.Live() != 0 {
		t.Fatalf("leak: reference %d units, iterative %d", ref.Live(), got.Live())
	}
}

// pathCopyRanges are the key ranges the differential histories run over: a
// tree that is empty or one entry (every delete that hits empties the leaf),
// one that stays inside a leaf or two, and one a few levels deep whose
// leaves fill up and overflow.
var pathCopyRanges = []struct {
	keys  int64
	steps int
}{{1, 200}, {3, 300}, {3 * leafMax, 1500}, {100 * leafMax, 6000}}

// TestPathCopyDifferential holds the iterative path copy to the recursive
// one it replaced over plain values: same trees, same space, same unit
// counts, through the root and through a bound view, stealing and not, with
// and without recycling, in wide leaves and in narrow ones.
func TestPathCopyDifferential(t *testing.T) {
	sum := func(old, new int64) int64 { return old + new }
	eq := func(a, b int64) bool { return a == b }
	for cfg := 0; cfg < 16; cfg++ {
		for ri, r := range pathCopyRanges {
			ref, got := intOps(0), intOps(0)
			if cfg&8 != 0 {
				ref, _ = NewNatural[int64, int64, int64](SumAug[int64](), 0)
				got, _ = NewNatural[int64, int64, int64](SumAug[int64](), 0)
			}
			ref.NoSteal, got.NoSteal = cfg&1 != 0, cfg&1 != 0
			ref.Recycle, got.Recycle = cfg&2 != 0, cfg&2 != 0
			view := got
			if cfg&4 != 0 {
				view = got.Bound(got.NewArena())
			}
			val := func(i int64) int64 { return i }
			pathCopyDiff(t, int64(10*cfg+ri), r.keys, r.steps, ref, view, val, sum, eq, augEq, nil)
		}
	}
}

// TestPathCopyDifferentialNested is the same over the nested-map values of
// nested_test.go: both sides' outer trees hold reference-counted trees of
// one inner family, and on top of the outer checks the inner family's space
// must be exactly the inner trees some live outer version holds — so every
// RetainVal and ReleaseVal of the path copy is accounted for.
func TestPathCopyDifferentialNested(t *testing.T) {
	for cfg := 0; cfg < 4; cfg++ {
		for ri, r := range pathCopyRanges {
			inner, ref := nestedOps()
			_, got := nestedOps()
			got.RetainVal, got.ReleaseVal = ref.RetainVal, ref.ReleaseVal // one inner family
			ref.NoSteal, got.NoSteal = cfg&1 != 0, cfg&1 != 0
			view := got
			if cfg&2 != 0 {
				got.Recycle = true
				view = got.Bound(got.NewArena())
			}
			// Every inner tree is one single-entry leaf, which is what
			// innerLive counts; the combine keeps the stored one.
			val := func(i int64) *innerNode { return inner.Insert(nil, i, i) }
			keepOld := func(old, new *innerNode) *innerNode { inner.Release(new); return old }
			eq := func(a, b *innerNode) bool { return a.leafEntry(0) == b.leafEntry(0) }
			check := func(roots []*Node[int64, *innerNode, struct{}]) {
				t.Helper()
				if live, want := inner.Live(), innerLive(ref, roots...); live != want {
					t.Fatalf("inner family: %d units allocated, %d held by live outer versions", live, want)
				}
			}
			pathCopyDiff(t, int64(100+10*cfg+ri), r.keys, r.steps, ref, view, val, keepOld, eq, nil, check)
			if inner.Live() != 0 {
				t.Fatalf("inner family leaked %d units", inner.Live())
			}
		}
	}
}

// TestMaxPathBound derives maxPath from α: the tallest tree Validate accepts
// hangs, at every internal node, the heaviest child balancedWeights allows —
// ⌊3w/4⌋ of the node's weight w — and stops at the first weight too small
// for an internal node (more than leafMax entries, weight leafMax+2).  At
// math.MaxInt64 entries that path must fit the step record exactly.
func TestMaxPathBound(t *testing.T) {
	depth := 0
	for w := uint64(math.MaxInt64) + 1; w >= leafMax+2; depth++ {
		heavy := w/4*3 + w%4*3/4
		if w < 1<<60 { // the check itself overflows above that
			light := int64(w - heavy)
			if !balancedWeights(int64(heavy), light) || balancedWeights(int64(heavy)+1, light-1) {
				t.Fatalf("weight %d: %d is not the heaviest balanced child", w, heavy)
			}
		}
		w = heavy
	}
	if depth != maxPath {
		t.Fatalf("a tree of math.MaxInt64 entries can be %d internal nodes tall; maxPath is %d", depth, maxPath)
	}
}

package ftree

import (
	"fmt"
	"testing"
)

// seqEntries returns n entries with keys 10, 20, …, so there is room to
// insert before, between and after them.
func seqEntries(n int) []Entry[int64, int64] {
	es := make([]Entry[int64, int64], n)
	for i := range es {
		es[i] = Entry[int64, int64]{Key: int64(i+1) * 10, Val: int64(i)}
	}
	return es
}

// TestLeafBoundaries walks trees of every size around a leaf boundary
// through the point operations: a build, an insert at the front, in the
// middle, at the back and over an existing key, then deletes down to empty —
// with every snapshot taken on the way still reading its own contents.
// Sizes 30 to 33 and 65 are fixed besides the ones derived from leafMax:
// the boundaries of narrower leaves, and a second and a third leaf that
// Build fills unevenly.
func TestLeafBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, leafMax - 1, leafMax, leafMax + 1, 30, 31, 32, 33, 2*leafMax + 1, 65, 10_000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			o := intOps(0)
			ref := map[int64]int64{}
			for _, e := range seqEntries(n) {
				ref[e.Key] = e.Val
			}
			root := o.Build(seqEntries(n))
			type snap struct {
				root *Node[int64, int64, int64]
				ref  map[int64]int64
			}
			var snaps []snap
			check := func(what string) {
				t.Helper()
				if err := o.Validate(root, augEq); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				assertTreeEquals(t, o, root, ref)
				roots := []*Node[int64, int64, int64]{root}
				for _, s := range snaps {
					roots = append(roots, s.root)
				}
				checkExact(t, o, roots...)
			}
			keep := func() {
				cp := make(map[int64]int64, len(ref))
				for k, v := range ref {
					cp[k] = v
				}
				snaps = append(snaps, snap{o.share(root), cp})
			}
			check("build")
			keep()
			mid := int64(n/2)*10 + 5
			for _, k := range []int64{5, mid, int64(n+1) * 10, int64(n/2+1) * 10} {
				nr := o.Insert(root, k, -k)
				o.Release(root)
				root = nr
				ref[k] = -k
				check(fmt.Sprintf("insert %d", k))
			}
			keep()
			// Delete from the middle outwards so runs shrink from both ends
			// and neighbouring leaves merge; validate at every step near a
			// boundary and every so often in between.
			keys := o.Entries(root)
			for i := range keys {
				j := (len(keys)/2 + i) % len(keys)
				k := keys[j].Key
				nr := o.Delete(root, k)
				o.Release(root)
				root = nr
				delete(ref, k)
				left := len(keys) - i - 1
				if left <= 3*leafMax || left%97 == 0 {
					check(fmt.Sprintf("delete %d (%d left)", k, left))
				}
				if left == leafMax || left == 1 {
					keep()
				}
			}
			if root != nil {
				t.Fatalf("tree of %d entries after deleting everything", o.Size(root))
			}
			for i, s := range snaps {
				assertTreeEquals(t, o, s.root, s.ref)
				for k, v := range s.ref {
					if got, ok := o.Find(s.root, k); !ok || got != v {
						t.Fatalf("snapshot %d: find(%d) = %d,%v want %d", i, k, got, ok, v)
					}
				}
				o.Release(s.root)
			}
			if o.Live() != 0 {
				t.Fatalf("leaked %d units", o.Live())
			}
		})
	}
}

// TestLeafShape pins the fold/unfold rule at the boundary: leafMax entries
// are one unit, one more is an internal node over two leaves, and deleting
// that one folds the three units back into one.
func TestLeafShape(t *testing.T) {
	o := intOps(0)
	full := o.Build(seqEntries(leafMax))
	if o.Live() != 1 || o.Height(full) != 1 {
		t.Fatalf("%d entries: %d units, height %d; want one leaf", leafMax, o.Live(), o.Height(full))
	}
	over := o.Insert(full, 5, 0)
	o.Release(full)
	if o.Live() != 3 || o.Height(over) != 2 {
		t.Fatalf("%d entries: %d units, height %d; want a node over two leaves", leafMax+1, o.Live(), o.Height(over))
	}
	back := o.Delete(over, 5)
	o.Release(over)
	if o.Live() != 1 || o.Height(back) != 1 {
		t.Fatalf("back to %d entries: %d units, height %d; want one leaf", leafMax, o.Live(), o.Height(back))
	}
	o.Release(back)
	checkExact(t, o)
}

// warmPointWriteAllocs builds a few-level tree on a bound view, warms the
// magazines, the collector's stack and the step record with write, and
// reports the heap allocations of one more write — the most over two
// families: keys ordered by a Cmp, in wide leaves, and in their own order
// (NewNatural), in narrow ones.  write maps the current root and a key of
// the tree to the next root.
func warmPointWriteAllocs(t *testing.T, write func(bo *Ops[int64, int64, int64], root *Node[int64, int64, int64], k int64) *Node[int64, int64, int64]) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	natural, _ := NewNatural[int64, int64, int64](SumAug[int64](), 0)
	natural.Recycle = true
	worst := 0.0
	for _, o := range []*Ops[int64, int64, int64]{arenaOps(), natural} {
		bo := o.Bound(o.NewArena())
		const n = 100 * leafMax
		root := bo.Build(seqEntries(n))
		if first := leftmostLeaf(root); first.narrow != (o == natural) {
			t.Fatalf("leaves narrow %v under NewNatural %v", first.narrow, o == natural)
		}
		k := int64(0)
		step := func() {
			k = (k + 7919) % n
			root = write(bo, root, (k+1)*10)
		}
		for i := 0; i < 100; i++ {
			step()
		}
		worst = max(worst, testing.AllocsPerRun(1000, step))
		bo.Release(root)
		if o.Live() != 0 {
			t.Fatalf("leaked %d units", o.Live())
		}
	}
	return worst
}

// TestBoundReplaceInsertNoAlloc: on a bound view, replacing a key and
// releasing the old version recycles the path's nodes and the leaf's unit
// through the magazines — nothing comes from the Go heap once warm.
func TestBoundReplaceInsertNoAlloc(t *testing.T) {
	allocs := warmPointWriteAllocs(t, func(bo *Ops[int64, int64, int64], root *Node[int64, int64, int64], k int64) *Node[int64, int64, int64] {
		nr := bo.Insert(root, k, k)
		bo.Release(root)
		return nr
	})
	if allocs != 0 {
		t.Fatalf("warm replace-Insert+Release allocates %.2f times per op", allocs)
	}
}

// TestBoundDeleteInsertNoAlloc is the same gate for the delete half of the
// path copy: deleting a key, putting it back and releasing both old versions
// — a leaf that shrinks and one that grows, joins that fold and rotate on
// the way up — takes nothing from the Go heap once warm.
func TestBoundDeleteInsertNoAlloc(t *testing.T) {
	allocs := warmPointWriteAllocs(t, func(bo *Ops[int64, int64, int64], root *Node[int64, int64, int64], k int64) *Node[int64, int64, int64] {
		without := bo.Delete(root, k)
		bo.Release(root)
		back := bo.Insert(without, k, k)
		bo.Release(without)
		return back
	})
	if allocs != 0 {
		t.Fatalf("warm Delete+Insert+2×Release allocates %.2f times per op", allocs)
	}
}

// leftmostLeaf is the leaf that holds non-empty tree t's smallest key.
func leftmostLeaf[K, V, A any](t *Node[K, V, A]) *Node[K, V, A] {
	for t.fill == 0 {
		t = t.left
	}
	return t
}

package ftree

import (
	"fmt"
	"sync/atomic"
)

// Invariant checking and debugging support.  These walk borrowed trees and
// are used by the property tests; they are not part of the hot paths.

// Validate checks every structural invariant of borrowed tree t: BST key
// order, BB[α] weight balance, correct cached sizes and augmented values,
// positive reference counts on every reachable node, and the leaf-block
// shape — a leaf holds 1 to leafMax strictly ascending entries in the
// layout its first and last key call for (narrowFor), a narrow one's
// offsets ascending from 0, and an internal node more than leafMax.  It
// returns the first violation found, or nil.
func (o *Ops[K, V, A]) Validate(t *Node[K, V, A], augEqual func(a, b A) bool) error {
	_, err := o.validate(t, nil, nil, augEqual)
	return err
}

func (o *Ops[K, V, A]) validate(t *Node[K, V, A], lo, hi *K, augEqual func(a, b A) bool) (int64, error) {
	if t == nil {
		return 0, nil
	}
	if r := atomic.LoadInt32(&t.ref); r <= 0 {
		return 0, fmt.Errorf("ftree: reachable node has ref %d", r)
	}
	if t.fill != 0 {
		return o.validateLeaf(t, lo, hi, augEqual)
	}
	if t.size <= leafMax {
		return 0, fmt.Errorf("ftree: internal node of %d entries, want > %d", t.size, leafMax)
	}
	if lo != nil && o.Cmp(t.key, *lo) <= 0 {
		return 0, fmt.Errorf("ftree: key order violated (≤ lower bound)")
	}
	if hi != nil && o.Cmp(t.key, *hi) >= 0 {
		return 0, fmt.Errorf("ftree: key order violated (≥ upper bound)")
	}
	ls, err := o.validate(t.left, lo, &t.key, augEqual)
	if err != nil {
		return 0, err
	}
	rs, err := o.validate(t.right, &t.key, hi, augEqual)
	if err != nil {
		return 0, err
	}
	if t.size != ls+rs+1 {
		return 0, fmt.Errorf("ftree: size cache %d, computed %d", t.size, ls+rs+1)
	}
	if !balancedWeights(ls+1, rs+1) {
		return 0, fmt.Errorf("ftree: weight balance violated: |left|=%d |right|=%d", ls, rs)
	}
	if augEqual != nil {
		want := o.Aug.Single(t.key, t.val)
		if t.left != nil {
			want = o.Aug.Combine(t.left.aug, want)
		}
		if t.right != nil {
			want = o.Aug.Combine(want, t.right.aug)
		}
		if !augEqual(t.aug, want) {
			return 0, fmt.Errorf("ftree: augmentation cache mismatch at key %v", t.key)
		}
	}
	return ls + rs + 1, nil
}

func (o *Ops[K, V, A]) validateLeaf(t *Node[K, V, A], lo, hi *K, augEqual func(a, b A) bool) (int64, error) {
	fill := int(t.fill)
	if fill < 1 || fill > leafMax {
		return 0, fmt.Errorf("ftree: leaf of %d entries, want 1..%d", fill, leafMax)
	}
	if t.narrow {
		if !o.narrows {
			return 0, fmt.Errorf("ftree: narrow leaf in a family that has none")
		}
		u := t.narrowUnit()
		if u.off[0] != 0 {
			return 0, fmt.Errorf("ftree: narrow leaf's first offset %d, want 0", u.off[0])
		}
		for i := 1; i < fill; i++ {
			if u.off[i] <= u.off[i-1] {
				return 0, fmt.Errorf("ftree: narrow leaf's offsets do not ascend at %d", i)
			}
		}
	}
	first, last := t.leafKey(0), t.leafKey(fill-1)
	prev := lo
	for i := 0; i < fill; i++ {
		k := t.leafKey(i)
		if prev != nil && o.Cmp(k, *prev) <= 0 {
			return 0, fmt.Errorf("ftree: key order violated in leaf (≤ predecessor)")
		}
		prev = &k
	}
	if hi != nil && o.Cmp(last, *hi) >= 0 {
		return 0, fmt.Errorf("ftree: key order violated in leaf (≥ upper bound)")
	}
	if want := o.narrowFor(first, last); t.narrow != want {
		return 0, fmt.Errorf("ftree: leaf of keys %v..%v is narrow: %v, want %v", first, last, t.narrow, want)
	}
	if augEqual != nil {
		// Entry by entry, as the augmenter defines the fold, so the bulk
		// paths (FoldRun, foldVals) are checked rather than trusted.
		want := o.Aug.Single(first, t.leafVal(0))
		for i := 1; i < fill; i++ {
			want = o.Aug.Combine(want, o.Aug.Single(t.leafKey(i), t.leafVal(i)))
		}
		if !augEqual(t.aug, want) {
			return 0, fmt.Errorf("ftree: augmentation cache mismatch in leaf at key %v", first)
		}
	}
	return int64(fill), nil
}

// Height returns the height of borrowed tree t in nodes (0 for empty, 1
// for a leaf).
func (o *Ops[K, V, A]) Height(t *Node[K, V, A]) int {
	if t == nil {
		return 0
	}
	if t.fill != 0 {
		return 1
	}
	lh := o.Height(t.left)
	rh := o.Height(t.right)
	if lh > rh {
		return lh + 1
	}
	return rh + 1
}

// ReachableNodes counts the distinct allocation units — internal nodes and
// leaves — reachable from the given borrowed roots; the GC-exactness
// property tests compare this against Live().
func (o *Ops[K, V, A]) ReachableNodes(roots ...*Node[K, V, A]) int64 {
	seen := make(map[*Node[K, V, A]]struct{})
	var walk func(*Node[K, V, A])
	walk = func(n *Node[K, V, A]) {
		if n == nil {
			return
		}
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		if n.fill == 0 {
			walk(n.left)
			walk(n.right)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return int64(len(seen))
}

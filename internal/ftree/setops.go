package ftree

import "sync"

// Join-based bulk set operations (Just Join, SPAA 2016 — the algorithms in
// the paper's PAM library).  Each runs in O(m·log(n/m + 1)) work for input
// sizes m ≤ n and parallelizes by divide-and-conquer: the two recursive
// halves are independent and are forked when the subproblem exceeds
// Ops.Grain keys.

// maybeParallel runs f and g, forking f onto its own goroutine when the
// combined problem size exceeds the grain.  Both callbacks receive the Ops
// to continue on: sequentially that is o itself, but a forked f gets the
// unbound root, because an arena-bound view is single-owner and must never
// be touched from two goroutines.  The sequential spine — the goroutine
// that owns the arena — keeps its bound view the whole way down.
func (o *Ops[K, V, A]) maybeParallel(sz int64, f, g func(o *Ops[K, V, A])) {
	if o.Grain <= 0 || sz <= int64(o.Grain) {
		f(o)
		g(o)
		return
	}
	fo := o.Unbound()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f(fo)
	}()
	g(o)
	wg.Wait()
}

// Union returns a tree containing every key of borrowed trees a and b.
// For keys present in both, the value is comb(aVal, bVal); a nil comb keeps
// b's value.  Neither input is consumed; the result shares subtrees with
// both.
func (o *Ops[K, V, A]) Union(a, b *Node[K, V, A], comb func(av, bv V) V) *Node[K, V, A] {
	return o.unionOwned(o.share(a), o.share(b), comb)
}

// unionOwned consumes its tokens on a and b.
func (o *Ops[K, V, A]) unionOwned(a, b *Node[K, V, A], comb func(av, bv V) V) *Node[K, V, A] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return o.divide(opUnion, a, b, comb)
}

// Intersect returns a tree containing the keys present in both borrowed
// trees, with values comb(aVal, bVal) (nil comb keeps a's value).
func (o *Ops[K, V, A]) Intersect(a, b *Node[K, V, A], comb func(av, bv V) V) *Node[K, V, A] {
	return o.intersectOwned(o.share(a), o.share(b), comb)
}

func (o *Ops[K, V, A]) intersectOwned(a, b *Node[K, V, A], comb func(av, bv V) V) *Node[K, V, A] {
	if a == nil || b == nil {
		o.Release(a)
		o.Release(b)
		return nil
	}
	return o.divide(opIntersect, a, b, comb)
}

// Difference returns a tree containing the keys of borrowed tree a that are
// absent from borrowed tree b.
func (o *Ops[K, V, A]) Difference(a, b *Node[K, V, A]) *Node[K, V, A] {
	return o.differenceOwned(o.share(a), o.share(b))
}

func (o *Ops[K, V, A]) differenceOwned(a, b *Node[K, V, A]) *Node[K, V, A] {
	if a == nil {
		o.Release(b)
		return nil
	}
	if b == nil {
		return a
	}
	return o.divide(opDifference, a, b, nil)
}

// divide is the step the three operations share, on owned non-empty
// a and b.  Two leaves merge as sorted runs.  Otherwise the pivot is the
// root entry of a side that is an internal node (a when both are), the
// other side is split by its key — one cut of the run when that side is a
// leaf — and the two halves recurse; nothing unfolds entry by entry.
func (o *Ops[K, V, A]) divide(op setOp, a, b *Node[K, V, A], comb func(av, bv V) V) *Node[K, V, A] {
	if a.fill != 0 && b.fill != 0 {
		return o.mergeLeaves(op, a, b, comb)
	}
	sz := size(a) + size(b)
	var (
		k              K
		av, bv         V
		inA, inB       bool
		al, ar, bl, br *Node[K, V, A]
	)
	if a.fill == 0 {
		k, av, al, ar = o.decompose(a)
		bl, br, inB, bv = o.splitOwned(b, k)
		inA = true
	} else {
		k, bv, bl, br = o.decompose(b)
		al, ar, inA, av = o.splitOwned(a, k)
		inB = true
	}
	var l, r *Node[K, V, A]
	o.maybeParallel(sz,
		func(o *Ops[K, V, A]) { l = o.recurse(op, al, bl, comb) },
		func(o *Ops[K, V, A]) { r = o.recurse(op, ar, br, comb) },
	)
	switch {
	case inA && inB:
		if v, keep := o.both(op, av, bv, comb); keep {
			return o.Join(l, k, v, r)
		}
	case inA && op != opIntersect:
		return o.Join(l, k, av, r)
	case inA:
		o.releaseVal(av) // key absent from b: the entry is dropped
	case op == opUnion:
		return o.Join(l, k, bv, r)
	default:
		o.releaseVal(bv) // key absent from a
	}
	return o.Join2(l, r)
}

// recurse dispatches one half of a divide step through the operation's
// empty-input rules.
func (o *Ops[K, V, A]) recurse(op setOp, a, b *Node[K, V, A], comb func(av, bv V) V) *Node[K, V, A] {
	switch op {
	case opUnion:
		return o.unionOwned(a, b, comb)
	case opIntersect:
		return o.intersectOwned(a, b, comb)
	default:
		return o.differenceOwned(a, b)
	}
}

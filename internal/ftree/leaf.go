package ftree

import "math/bits"

// Leaf primitives: everything that reads or writes a run directly.  The
// rest of the package sees leaves through mk (which folds), decompose
// (which unfolds) and the base cases built from the helpers here.
//
// Values in a run obey the same ownership contract as a node's single
// value: copying a run out of a leaf that stays alive retains every value
// copied; a leaf taken apart under its sole token hands its value
// references to the copies instead (the steal path); freeing a leaf
// releases every value it still holds.

// search returns the position of k in a sorted run: the index of the entry
// with key k when found, the index where k would be inserted otherwise.
// Keys in their own order are compared directly (kernels.go); an Ops
// ordered by a caller's Cmp calls it.
func (o *Ops[K, V, A]) search(run []Entry[K, V], k K) (i int, found bool) {
	if kern := o.typed; kern != nil {
		return kern.search(run, k)
	}
	return o.searchCmp(run, k)
}

// searchCmp is search by whatever Cmp computes.
func (o *Ops[K, V, A]) searchCmp(run []Entry[K, V], k K) (i int, found bool) {
	lo, hi := 0, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		c := o.Cmp(k, run[m].Key)
		if c == 0 {
			return m, true
		}
		if c < 0 {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo, false
}

// span brackets k in a sorted run: run[:i] lies below k and run[j:] above
// it, with i < j exactly when k is present (at i).
func (o *Ops[K, V, A]) span(run []Entry[K, V], k K) (i, j int) {
	i, found := o.search(run, k)
	if found {
		return i, i + 1
	}
	return i, i
}

// newLeaf returns a private leaf of n entries for the caller to fill and
// seal: one unit, from the same places newNode's node comes from.
func (o *Ops[K, V, A]) newLeaf(n int) *Node[K, V, A] {
	var u *leaf[K, V, A]
	if o.Recycle {
		if a := o.arena; a != nil {
			u = a.leaves.get()
		} else {
			u = o.sh.leaves.pop()
		}
	}
	if u == nil {
		u = new(leaf[K, V, A])
	}
	u.ref, u.fill = 1, int32(n) // private until the caller publishes it
	nd := u.node()
	o.countAlloc(nd)
	return nd
}

// seal computes a filled leaf's augmentation.
func (o *Ops[K, V, A]) seal(nd *Node[K, V, A]) *Node[K, V, A] {
	if hasAug[A]() {
		nd.aug = o.foldRun(nd.run())
	}
	return nd
}

// foldRun is the augmentation of a run (Zero when empty): one call when the
// augmenter folds runs itself, two per entry otherwise.
func (o *Ops[K, V, A]) foldRun(run []Entry[K, V]) A {
	if o.bulk != nil {
		return o.bulk.FoldRun(run)
	}
	if len(run) == 0 {
		return o.Aug.Zero()
	}
	a := o.Aug.Single(run[0].Key, run[0].Val)
	for _, e := range run[1:] {
		a = o.Aug.Combine(a, o.Aug.Single(e.Key, e.Val))
	}
	return a
}

// retainRun retains every value of a run just copied out of a live leaf.
func (o *Ops[K, V, A]) retainRun(run []Entry[K, V]) {
	if o.RetainVal != nil {
		for i := range run {
			run[i].Val = o.RetainVal(run[i].Val)
		}
	}
}

// leafOf returns an owned leaf holding a copy of run (nil when empty),
// retaining the values when the run stays alive elsewhere.
func (o *Ops[K, V, A]) leafOf(run []Entry[K, V], retain bool) *Node[K, V, A] {
	if len(run) == 0 {
		return nil
	}
	nd := o.newLeaf(len(run))
	copy(nd.run(), run)
	if retain {
		o.retainRun(nd.run())
	}
	return o.seal(nd)
}

// drain consumes the caller's token on leaf t (nil-safe), moving its run
// into dst, and returns the run's length.
func (o *Ops[K, V, A]) drain(dst []Entry[K, V], t *Node[K, V, A]) int {
	if t == nil {
		return 0
	}
	n := copy(dst, t.run())
	if o.steals(t) {
		o.freeNode(t) // dst took over the value references
	} else {
		o.retainRun(dst[:n])
		o.Release(t)
	}
	return n
}

// fold is mk's leaf case: l, (k, v) and r fit in one leaf.  Both children
// are leaves or nil, since an internal node holds more than leafMax
// entries.
func (o *Ops[K, V, A]) fold(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	nd := o.newLeaf(int(size(l) + size(r) + 1))
	run := nd.run()
	i := o.drain(run, l)
	run[i] = Entry[K, V]{k, v}
	o.drain(run[i+1:], r)
	return o.seal(nd)
}

// carve consumes the caller's token on leaf t and returns owned leaves of
// run[:i] and run[j:] (nil where empty) plus, when i < j, the owned entry
// run[i] between them.
func (o *Ops[K, V, A]) carve(t *Node[K, V, A], i, j int) (l, r *Node[K, V, A], e Entry[K, V]) {
	run := t.run()
	steal := o.steals(t)
	l, r = o.leafOf(run[:i], !steal), o.leafOf(run[j:], !steal)
	if i < j {
		e = run[i]
	}
	if steal {
		o.freeNode(t) // the copies took over the value references
		return
	}
	if i < j {
		e.Val = o.retainVal(e.Val)
	}
	o.Release(t)
	return
}

// copyRun copies a live run into dst, retaining the values it copies, and
// returns how many entries that was.
func (o *Ops[K, V, A]) copyRun(dst, run []Entry[K, V]) int {
	n := copy(dst, run)
	o.retainRun(dst[:n])
	return n
}

// splice writes run[:i], e and run[j:] into dst, retaining the values it
// copies out of the live run.
func (o *Ops[K, V, A]) splice(dst, run []Entry[K, V], i, j int, e Entry[K, V]) {
	o.copyRun(dst, run[:i])
	dst[i] = e
	o.copyRun(dst[i+1:], run[j:])
}

// leafInsert is InsertWith on borrowed leaf t: the run copied with the
// change, in one leaf while it fits and cut in two around a middle entry
// when it overflows.
func (o *Ops[K, V, A]) leafInsert(t *Node[K, V, A], k K, v V, comb func(old, new V) V) *Node[K, V, A] {
	run := t.run()
	i, j := o.span(run, k)
	if i < j && comb != nil {
		v = comb(o.retainVal(run[i].Val), v)
	} // plain replace: the old value stays owned by the old leaf
	e := Entry[K, V]{k, v}
	if n := len(run) + 1 - (j - i); n <= leafMax {
		nd := o.newLeaf(n)
		o.splice(nd.run(), run, i, j, e)
		return o.seal(nd)
	}
	var all [leafMax + 1]Entry[K, V]
	o.splice(all[:], run, i, j, e)
	return o.build(all[:])
}

// leafDelete is Delete on borrowed leaf t: the run copied without k when k
// is there, which is nil when k was all there was.
func (o *Ops[K, V, A]) leafDelete(t *Node[K, V, A], k K) (out *Node[K, V, A], found bool) {
	run := t.run()
	i, found := o.search(run, k)
	if !found || len(run) == 1 {
		return nil, found
	}
	nd := o.newLeaf(len(run) - 1)
	dst := nd.run()
	o.copyRun(dst, run[:i])
	o.copyRun(dst[i:], run[i+1:])
	return o.seal(nd), true
}

// mergeRun is insertRun's base case: a batch of at most a leaf's worth
// merged into a non-empty live run.  The batch is located in the run first —
// that says how long the result is — and a result that fits one leaf, as
// every batch of replaces does, is woven straight into the new block, so a
// batch of one costs what leafInsert costs.  Only a result that overflows
// is staged, for build to cut in two.
//
// The two constants after it fail to compile for a leafMax that outgrows
// that bookkeeping: hit has one bit per batch entry and at one uint8 per
// batch entry, each holding a position up to leafMax.
func (o *Ops[K, V, A]) mergeRun(run, batch []Entry[K, V], comb func(old, new V) V) *Node[K, V, A] {
	var at [leafMax]uint8 // batch[b] belongs at run[at[b]],
	var hit uint64        // which holds its key already when bit b is set
	from := 0
	for b := range batch {
		i, found := o.search(run[from:], batch[b].Key)
		from += i
		at[b] = uint8(from)
		if found {
			hit |= 1 << b
			from++
		}
	}
	n := len(run) + len(batch) - bits.OnesCount64(hit)
	if n <= leafMax {
		nd := o.newLeaf(n)
		o.weave(nd.run(), run, batch, &at, hit, comb)
		return o.seal(nd)
	}
	var out [2 * leafMax]Entry[K, V]
	o.weave(out[:n], run, batch, &at, hit, comb)
	return o.build(out[:n])
}

const (
	_ uint64 = 1 << (leafMax - 1) // overflows when leafMax > 64
	_ uint8  = leafMax            // overflows when leafMax > 255
)

// weave writes the merge of a live run and a batch located in it (see
// mergeRun) into dst: the stretch of the run between two batch entries moves
// in one copy, retaining what it copies.
func (o *Ops[K, V, A]) weave(dst, run, batch []Entry[K, V], at *[leafMax]uint8, hit uint64, comb func(old, new V) V) {
	n, from := 0, 0
	for b, e := range batch {
		i := int(at[b])
		n += o.copyRun(dst[n:], run[from:i])
		from = i
		if hit&(1<<b) != 0 {
			e = o.over(run[i].Val, e, comb)
			from++
		}
		dst[n] = e
		n++
	}
	o.copyRun(dst[n:], run[from:])
}

// leafDeleteRun is deleteRun on borrowed leaf t.
func (o *Ops[K, V, A]) leafDeleteRun(t *Node[K, V, A], keys []K) (out *Node[K, V, A], changed bool) {
	run := t.run()
	var kept [leafMax]Entry[K, V]
	n := 0
	for _, k := range keys {
		i, j := o.span(run, k)
		n += copy(kept[n:], run[:i])
		run = run[j:]
	}
	n += copy(kept[n:], run)
	if n == int(t.fill) {
		return nil, false
	}
	return o.leafOf(kept[:n], true), true
}

// setOp selects what mergeLeaves and the join-based set operations keep.
type setOp int

const (
	opUnion setOp = iota
	opIntersect
	opDifference
)

// mergeLeaves is the base case of the set operations: both inputs are
// leaves, so the result is one merge of two sorted runs.  Consumes a and b.
func (o *Ops[K, V, A]) mergeLeaves(op setOp, a, b *Node[K, V, A], comb func(av, bv V) V) *Node[K, V, A] {
	var in, out [2 * leafMax]Entry[K, V]
	ra := in[:o.drain(in[:], a)]
	rb := in[leafMax : leafMax+o.drain(in[leafMax:], b)]
	n := 0
	for len(ra) > 0 || len(rb) > 0 {
		c := -1 // a's entry comes first, or b is exhausted
		if len(ra) == 0 {
			c = 1
		} else if len(rb) > 0 {
			c = o.Cmp(ra[0].Key, rb[0].Key)
		}
		switch {
		case c < 0:
			if op == opIntersect {
				o.releaseVal(ra[0].Val)
			} else {
				out[n] = ra[0]
				n++
			}
			ra = ra[1:]
		case c > 0:
			if op == opUnion {
				out[n] = rb[0]
				n++
			} else {
				o.releaseVal(rb[0].Val)
			}
			rb = rb[1:]
		default:
			if v, keep := o.both(op, ra[0].Val, rb[0].Val, comb); keep {
				out[n] = Entry[K, V]{ra[0].Key, v}
				n++
			}
			ra, rb = ra[1:], rb[1:]
		}
	}
	return o.build(out[:n])
}

// both decides a key present on both sides of a set operation, consuming
// the two owned values: the value the result stores, and whether it stores
// the key at all.
func (o *Ops[K, V, A]) both(op setOp, av, bv V, comb func(av, bv V) V) (v V, keep bool) {
	switch {
	case op == opDifference:
		o.releaseVal(av)
		o.releaseVal(bv)
		return v, false
	case comb != nil:
		return comb(av, bv), true // comb consumes both owned references
	case op == opUnion:
		o.releaseVal(av) // b's value wins
		return bv, true
	default:
		o.releaseVal(bv) // a's value wins
		return av, true
	}
}

package ftree

import "math/bits"

// Leaf primitives: everything that reads or writes a run directly, in
// either layout (unit.go).  The rest of the package sees leaves through mk
// (which folds), decompose (which unfolds) and the base cases built from
// the helpers here.
//
// Values in a run obey the same ownership contract as a node's single
// value: copying a run out of a leaf that stays alive retains every value
// copied; a leaf taken apart under its sole token hands its value
// references to the copies instead (the steal path); freeing a leaf
// releases every value it still holds.
//
// A write decides its result's layout from the result's first and last key
// (newLeaf) before it fills the unit, and fills it once: entries move
// between the layouts as they are copied (sink), never through a second
// staging of the run.

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

// searchIn is search over leaf n's entries [lo, hi), in positions of the
// whole run.
func (o *Ops[K, V, A]) searchIn(n *Node[K, V, A], lo, hi int, k K) (i int, found bool) {
	if n.narrow {
		u := n.narrowUnit()
		i, found = o.typed.searchNarrow(u.base, u.off[lo:hi], k)
	} else {
		i, found = o.search(n.unit().e[lo:hi], k)
	}
	return lo + i, found
}

// searchLeaf is search over leaf n's whole run.
func (o *Ops[K, V, A]) searchLeaf(n *Node[K, V, A], k K) (i int, found bool) {
	return o.searchIn(n, 0, int(n.fill), k)
}

// spanIn is span over leaf n's entries [lo, hi), in positions of the whole
// run.
func (o *Ops[K, V, A]) spanIn(n *Node[K, V, A], lo, hi int, k K) (i, j int) {
	i, found := o.searchIn(n, lo, hi, k)
	if found {
		return i, i + 1
	}
	return i, i
}

// leafKey is the key of leaf n's entry i.
func (n *Node[K, V, A]) leafKey(i int) K {
	if n.narrow {
		u := n.narrowUnit()
		return keyAt(u.base, u.off[i])
	}
	return n.unit().e[i].Key
}

// leafVal is the value of leaf n's entry i.
func (n *Node[K, V, A]) leafVal(i int) V {
	if n.narrow {
		return n.narrowUnit().v[i]
	}
	return n.unit().e[i].Val
}

// leafEntry is leaf n's entry i.
func (n *Node[K, V, A]) leafEntry(i int) Entry[K, V] { return Entry[K, V]{n.leafKey(i), n.leafVal(i)} }

// eachIn visits leaf n's entries [i, j) in order until f returns false; it
// reports whether the walk ran to completion.
func eachIn[K, V, A any](n *Node[K, V, A], i, j int, f func(K, V) bool) bool {
	if n.narrow {
		u := n.narrowUnit()
		for x := i; x < j; x++ {
			if !f(keyAt(u.base, u.off[x]), u.v[x]) {
				return false
			}
		}
		return true
	}
	for _, e := range n.unit().e[i:j] {
		if !f(e.Key, e.Val) {
			return false
		}
	}
	return true
}

// narrowFor is the layout rule: a leaf whose run goes from key first to key
// last is narrow exactly when the Ops narrows and the keys span less than
// 1<<16, so every tree of the same entries has the same units.
func (o *Ops[K, V, A]) narrowFor(first, last K) bool {
	return o.narrows && keySpan(first, last) < 1<<16
}

// newLeaf returns a private leaf of n entries, first to last, for the caller
// to fill and seal: one unit of the layout narrowFor gives those keys, from
// the same places newNode's node comes from.  A narrow unit's base is set.
func (o *Ops[K, V, A]) newLeaf(n int, first, last K) *Node[K, V, A] {
	var nd *Node[K, V, A]
	if o.narrowFor(first, last) {
		var u *narrowLeaf[K, V, A]
		switch {
		case !o.Recycle:
			u = new(narrowLeaf[K, V, A])
		case o.arena != nil:
			u = o.arena.narrow.get()
		default:
			u = o.sh.narrow.pop(leafChunk[narrowLeaf[K, V, A]]())
		}
		u.narrow, u.base = true, first
		nd = u.node()
	} else {
		var u *leaf[K, V, A]
		switch {
		case !o.Recycle:
			u = new(leaf[K, V, A])
		case o.arena != nil:
			u = o.arena.leaves.get()
		default:
			u = o.sh.leaves.pop(leafChunk[leaf[K, V, A]]())
		}
		u.narrow = false
		nd = u.node()
	}
	nd.ref, nd.fill = 1, uint16(n) // private until the caller publishes it
	o.countAlloc(nd)
	return nd
}

// seal computes a filled leaf's augmentation.
func (o *Ops[K, V, A]) seal(nd *Node[K, V, A]) *Node[K, V, A] {
	if hasAug[A]() {
		nd.aug = o.foldIn(nd, 0, int(nd.fill))
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

// foldIn is foldRun of leaf n's entries [i, j).  A narrow leaf has no run
// of entries to hand a FoldRun: it folds its values in one call under
// SumAug (valFolder), entry by entry otherwise.
func (o *Ops[K, V, A]) foldIn(n *Node[K, V, A], i, j int) A {
	if !n.narrow {
		return o.foldRun(n.unit().e[i:j])
	}
	u := n.narrowUnit()
	if o.vals != nil {
		return o.vals.foldVals(u.v[i:j])
	}
	if i == j {
		return o.Aug.Zero()
	}
	a := o.Aug.Single(keyAt(u.base, u.off[i]), u.v[i])
	for x := i + 1; x < j; x++ {
		a = o.Aug.Combine(a, o.Aug.Single(keyAt(u.base, u.off[x]), u.v[x]))
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

// sink is a run a write fills: a wide leaf's entries or a staging buffer
// (e), or a narrow leaf's unit (u), whose base is set and whose keys are
// stored as offsets from it.
type sink[K, V, A any] struct {
	e []Entry[K, V]
	u *narrowLeaf[K, V, A]
}

// into is new leaf nd as the sink its write fills.
func into[K, V, A any](nd *Node[K, V, A]) sink[K, V, A] {
	if nd.narrow {
		return sink[K, V, A]{u: nd.narrowUnit()}
	}
	return sink[K, V, A]{e: nd.unit().e[:nd.fill]}
}

// set stores entry e at position i.
func (d sink[K, V, A]) set(i int, e Entry[K, V]) {
	if u := d.u; u != nil {
		u.off[i], u.v[i] = offset(u.base, e.Key), e.Val
		return
	}
	d.e[i] = e
}

// putRun copies run to position at and returns its length.
func (d sink[K, V, A]) putRun(at int, run []Entry[K, V]) int {
	u := d.u
	if u == nil {
		return copy(d.e[at:], run)
	}
	off, v := u.off[at:at+len(run)], u.v[at:at+len(run)]
	for i, e := range run {
		off[i], v[i] = offset(u.base, e.Key), e.Val
	}
	return len(run)
}

// putLeaf copies leaf src's entries [i, j) to position at and returns how
// many that was.
func (d sink[K, V, A]) putLeaf(at int, src *Node[K, V, A], i, j int) int {
	if !src.narrow {
		return d.putRun(at, src.unit().e[i:j])
	}
	s := src.narrowUnit()
	u := d.u
	if u == nil {
		dst := d.e[at : at+j-i]
		for x := range dst {
			dst[x] = Entry[K, V]{keyAt(s.base, s.off[i+x]), s.v[i+x]}
		}
		return j - i
	}
	copy(u.v[at:], s.v[i:j])
	if shift := offset(u.base, s.base); shift == 0 {
		copy(u.off[at:], s.off[i:j])
	} else {
		off := u.off[at : at+j-i]
		for x, w := range s.off[i:j] {
			off[x] = w + shift // modulo 1<<16: see offset
		}
	}
	return j - i
}

// retainIn retains the values at positions [i, j) of a sink that were just
// copied out of a live leaf.
func (o *Ops[K, V, A]) retainIn(d sink[K, V, A], i, j int) {
	if o.RetainVal == nil {
		return
	}
	if u := d.u; u != nil {
		for x := i; x < j; x++ {
			u.v[x] = o.RetainVal(u.v[x])
		}
		return
	}
	o.retainRun(d.e[i:j])
}

// copyIn copies live leaf src's entries [i, j) into d at position at,
// retaining the values it copies, and returns how many that was.
func (o *Ops[K, V, A]) copyIn(d sink[K, V, A], at int, src *Node[K, V, A], i, j int) int {
	n := d.putLeaf(at, src, i, j)
	o.retainIn(d, at, at+n)
	return n
}

// leafOf returns an owned leaf holding run (nil when empty), whose values
// it consumes.
func (o *Ops[K, V, A]) leafOf(run []Entry[K, V]) *Node[K, V, A] {
	if len(run) == 0 {
		return nil
	}
	nd := o.newLeaf(len(run), run[0].Key, run[len(run)-1].Key)
	into(nd).putRun(0, run)
	return o.seal(nd)
}

// leafFrom returns an owned leaf holding a copy of leaf t's entries [i, j)
// (nil when empty), retaining the values when t stays alive.
func (o *Ops[K, V, A]) leafFrom(t *Node[K, V, A], i, j int, retain bool) *Node[K, V, A] {
	if i == j {
		return nil
	}
	nd := o.newLeaf(j-i, t.leafKey(i), t.leafKey(j-1))
	d := into(nd)
	d.putLeaf(0, t, i, j)
	if retain {
		o.retainIn(d, 0, j-i)
	}
	return o.seal(nd)
}

// drain consumes the caller's token on leaf t (nil-safe), moving its run
// into d at position at, and returns the run's length.
func (o *Ops[K, V, A]) drain(d sink[K, V, A], at int, t *Node[K, V, A]) int {
	if t == nil {
		return 0
	}
	n := d.putLeaf(at, t, 0, int(t.fill))
	if o.steals(t) {
		o.freeNode(t) // d took over the value references
	} else {
		o.retainIn(d, at, at+n)
		o.Release(t)
	}
	return n
}

// fold is mk's leaf case: l, (k, v) and r fit in one leaf.  Both children
// are leaves or nil, since an internal node holds more than leafMax
// entries.
func (o *Ops[K, V, A]) fold(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	first, last := k, k
	if l != nil {
		first = l.leafKey(0)
	}
	if r != nil {
		last = r.leafKey(int(r.fill) - 1)
	}
	nd := o.newLeaf(int(size(l)+size(r)+1), first, last)
	d := into(nd)
	i := o.drain(d, 0, l)
	d.set(i, Entry[K, V]{k, v})
	o.drain(d, i+1, r)
	return o.seal(nd)
}

// carve consumes the caller's token on leaf t and returns owned leaves of
// its entries [0, i) and [j, fill) (nil where empty) plus, when i < j, the
// owned entry i between them.
func (o *Ops[K, V, A]) carve(t *Node[K, V, A], i, j int) (l, r *Node[K, V, A], e Entry[K, V]) {
	steal := o.steals(t)
	l, r = o.leafFrom(t, 0, i, !steal), o.leafFrom(t, j, int(t.fill), !steal)
	if i < j {
		e = t.leafEntry(i)
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

// splice writes live leaf t's entries [0, i), e and [j, fill) into d,
// retaining the values it copies out of t.
func (o *Ops[K, V, A]) splice(d sink[K, V, A], t *Node[K, V, A], i, j int, e Entry[K, V]) {
	o.copyIn(d, 0, t, 0, i)
	d.set(i, e)
	o.copyIn(d, i+1, t, j, int(t.fill))
}

// leafInsert is InsertWith on borrowed leaf t: the run copied with the
// change, in one leaf while it fits and cut in two around a middle entry
// when it overflows.
func (o *Ops[K, V, A]) leafInsert(t *Node[K, V, A], k K, v V, comb func(old, new V) V) *Node[K, V, A] {
	fill := int(t.fill)
	i, j := o.spanIn(t, 0, fill, k)
	if i < j && comb != nil {
		v = comb(o.retainVal(t.leafVal(i)), v)
	} // plain replace: the old value stays owned by the old leaf
	if i < j && t.narrow {
		return o.narrowReplace(t, i, v)
	}
	e := Entry[K, V]{k, v}
	if n := fill + 1 - (j - i); n <= leafMax {
		first, last := k, k
		if i > 0 {
			first = t.leafKey(0)
		}
		if j < fill {
			last = t.leafKey(fill - 1)
		}
		nd := o.newLeaf(n, first, last)
		o.splice(into(nd), t, i, j, e)
		return o.seal(nd)
	}
	var all [leafMax + 1]Entry[K, V]
	o.splice(sink[K, V, A]{e: all[:]}, t, i, j, e)
	return o.build(all[:])
}

// narrowReplace is leafInsert's replace of entry i of narrow leaf t by
// value v: the keys stay, and with them the layout and the base, so the new
// leaf is t's body copied whole and one value stored.
func (o *Ops[K, V, A]) narrowReplace(t *Node[K, V, A], i int, v V) *Node[K, V, A] {
	src := t.narrowUnit()
	nd := o.newLeaf(int(t.fill), src.base, src.base)
	u := nd.narrowUnit()
	u.narrowRun = src.narrowRun
	u.v[i] = v
	d := sink[K, V, A]{u: u}
	o.retainIn(d, 0, i)
	o.retainIn(d, i+1, int(t.fill))
	return o.seal(nd)
}

// leafDelete is Delete on borrowed leaf t: the run copied without k when k
// is there, which is nil when k was all there was.
func (o *Ops[K, V, A]) leafDelete(t *Node[K, V, A], k K) (out *Node[K, V, A], found bool) {
	fill := int(t.fill)
	i, found := o.searchLeaf(t, k)
	if !found || fill == 1 {
		return nil, found
	}
	first, last := 0, fill-1
	if i == first {
		first++
	} else if i == last {
		last--
	}
	nd := o.newLeaf(fill-1, t.leafKey(first), t.leafKey(last))
	d := into(nd)
	o.copyIn(d, 0, t, 0, i)
	o.copyIn(d, i, t, i+1, fill)
	return o.seal(nd), true
}

// mergeRun is insertRun's base case: a batch of at most a leaf's worth
// merged into entries [lo, hi) of live leaf t, lo < hi.  The batch is
// located in the run first — that says how long the result is, and where it
// starts and ends — and a result that fits one leaf, as every batch of
// replaces does, is woven straight into the new unit, so a batch of one
// costs what leafInsert costs.  Only a result that overflows is staged, for
// build to cut in two.
//
// The two constants after it fail to compile for a leafMax that outgrows
// that bookkeeping: hit has one bit per batch entry and at one uint8 per
// batch entry, each holding a position up to leafMax.
func (o *Ops[K, V, A]) mergeRun(t *Node[K, V, A], lo, hi int, batch []Entry[K, V], comb func(old, new V) V) *Node[K, V, A] {
	var at [leafMax]uint8 // batch[b] belongs at entry at[b] of t,
	var hit uint64        // which holds its key already when bit b is set
	from := lo
	for b := range batch {
		i, found := o.searchIn(t, from, hi, batch[b].Key)
		at[b] = uint8(i)
		from = i
		if found {
			hit |= 1 << b
			from++
		}
	}
	n := hi - lo + len(batch) - bits.OnesCount64(hit)
	if n <= leafMax {
		first, last := batch[0].Key, batch[len(batch)-1].Key
		if int(at[0]) > lo {
			first = t.leafKey(lo)
		}
		if int(at[len(batch)-1]) < hi {
			last = t.leafKey(hi - 1)
		}
		nd := o.newLeaf(n, first, last)
		o.weave(into(nd), t, lo, hi, batch, &at, hit, comb)
		return o.seal(nd)
	}
	var out [2 * leafMax]Entry[K, V]
	o.weave(sink[K, V, A]{e: out[:n]}, t, lo, hi, batch, &at, hit, comb)
	return o.build(out[:n])
}

const (
	_ uint64 = 1 << (leafMax - 1) // overflows when leafMax > 64
	_ uint8  = leafMax            // overflows when leafMax > 255
)

// weave writes the merge of live leaf t's entries [lo, hi) and a batch
// located in them (see mergeRun) into d: the stretch of the run between two
// batch entries moves in one copy, retaining what it copies.
func (o *Ops[K, V, A]) weave(d sink[K, V, A], t *Node[K, V, A], lo, hi int, batch []Entry[K, V], at *[leafMax]uint8, hit uint64, comb func(old, new V) V) {
	n, from := 0, lo
	for b, e := range batch {
		i := int(at[b])
		n += o.copyIn(d, n, t, from, i)
		from = i
		if hit&(1<<b) != 0 {
			e = o.over(t.leafVal(i), e, comb)
			from++
		}
		d.set(n, e)
		n++
	}
	o.copyIn(d, n, t, from, hi)
}

// leafDeleteRun is deleteRun on borrowed leaf t: the keys are located
// first, and the entries they miss are copied once into a leaf of the
// layout its first and last say.
func (o *Ops[K, V, A]) leafDeleteRun(t *Node[K, V, A], keys []K) (out *Node[K, V, A], changed bool) {
	fill := int(t.fill)
	var gone uint64 // bit i: entry i's key is among keys
	from := 0
	for _, k := range keys {
		i, found := o.searchIn(t, from, fill, k)
		if found {
			gone |= 1 << i
			i++
		}
		from = i
	}
	if gone == 0 {
		return nil, false
	}
	kept := ^gone & (1<<fill - 1)
	if kept == 0 {
		return nil, true
	}
	first, last := bits.TrailingZeros64(kept), 63-bits.LeadingZeros64(kept)
	nd := o.newLeaf(bits.OnesCount64(kept), t.leafKey(first), t.leafKey(last))
	d := into(nd)
	n := 0
	from = 0
	for m := gone; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		n += o.copyIn(d, n, t, from, i)
		from = i + 1
	}
	o.copyIn(d, n, t, from, fill)
	return o.seal(nd), true
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
	ra := in[:o.drain(sink[K, V, A]{e: in[:]}, 0, a)]
	rb := in[leafMax : leafMax+o.drain(sink[K, V, A]{e: in[leafMax:]}, 0, b)]
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

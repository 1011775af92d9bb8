package ftree

import "slices"

// Build constructs a perfectly balanced owned tree from entries sorted by
// key with no duplicates, cutting the input into leaves directly and
// consuming the entries' values.  O(n) work, O(log n) span with parallel
// halves.
func (o *Ops[K, V, A]) Build(entries []Entry[K, V]) *Node[K, V, A] {
	if o.Grain <= 0 || len(entries) <= max(o.Grain, leafMax) {
		return o.build(entries)
	}
	mid := len(entries) / 2
	var l, r *Node[K, V, A]
	o.maybeParallel(int64(len(entries)),
		func(o *Ops[K, V, A]) { l = o.Build(entries[:mid]) },
		func(o *Ops[K, V, A]) { r = o.Build(entries[mid+1:]) },
	)
	return o.mk(l, entries[mid].Key, entries[mid].Val, r)
}

// build is Build's sequential case.  It captures nothing, so a caller's
// stack-allocated run stays on the stack.
func (o *Ops[K, V, A]) build(entries []Entry[K, V]) *Node[K, V, A] {
	if len(entries) <= leafMax {
		return o.leafOf(entries, false)
	}
	mid := len(entries) / 2
	return o.mk(o.build(entries[:mid]), entries[mid].Key, entries[mid].Val, o.build(entries[mid+1:]))
}

// SortEntries sorts a batch by key and coalesces duplicates, applying comb
// left-to-right (nil comb keeps the last occurrence).  The input slice is
// reordered in place and the result aliases it.  This is the preprocessing
// step of MultiInsert.
func (o *Ops[K, V, A]) SortEntries(batch []Entry[K, V], comb func(old, new V) V) []Entry[K, V] {
	slices.SortStableFunc(batch, func(a, b Entry[K, V]) int { return o.Cmp(a.Key, b.Key) })
	// Dedup in place: skip ahead to the first duplicate so the common
	// all-unique batch pays one comparison per entry and no copies.
	dup := -1
	for i := 1; i < len(batch); i++ {
		if o.Cmp(batch[i-1].Key, batch[i].Key) == 0 {
			dup = i
			break
		}
	}
	if dup < 0 {
		return batch
	}
	out := batch[:dup]
	for _, e := range batch[dup:] {
		if o.Cmp(out[len(out)-1].Key, e.Key) == 0 {
			if comb != nil {
				out[len(out)-1].Val = comb(out[len(out)-1].Val, e.Val)
			} else {
				o.releaseVal(out[len(out)-1].Val) // superseded duplicate
				out[len(out)-1].Val = e.Val
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// MultiInsert returns a new owned tree equal to borrowed t with the whole
// batch inserted atomically: it sorts and deduplicates the batch, builds a
// balanced tree from it in parallel, and unions it into t — PAM's
// multi_insert, the primitive behind the paper's batched single writer
// (Section 7.2 and Appendix F).  For a key already in t, the stored value
// becomes comb(old, new); nil comb overwrites.
func (o *Ops[K, V, A]) MultiInsert(t *Node[K, V, A], batch []Entry[K, V], comb func(old, new V) V) *Node[K, V, A] {
	if len(batch) == 0 {
		return o.share(t)
	}
	sorted := o.SortEntries(batch, comb)
	o.reserveBatch(len(sorted))
	built := o.Build(sorted)
	return o.unionOwned(o.share(t), built, comb)
}

// reserveBatch pre-fills the bound arena with what Build will take to cut
// an m-entry batch into leaves: at most p leaves under p−1 internal nodes,
// p the power of two that halves m to leafMax.  That much is certain and
// wanted in one contiguous carve.  What the union then copies of the tree
// depends on where the batch lands — nothing but a spine for an append, a
// leaf per entry for a scattered batch — and comes through the magazines'
// ordinary block refills, one lock per magMove objects; reserving for the
// worst case would park the difference for good.  A no-op on an unbound
// Ops or with Recycle off.
func (o *Ops[K, V, A]) reserveBatch(m int) {
	if o.arena == nil || !o.Recycle {
		return
	}
	p := 1
	for ; m > leafMax; m /= 2 {
		p *= 2
	}
	o.arena.reserve(2*p, p)
}

// MultiDelete returns a new owned tree equal to borrowed t with every key
// of the batch removed.
func (o *Ops[K, V, A]) MultiDelete(t *Node[K, V, A], keys []K) *Node[K, V, A] {
	if len(keys) == 0 {
		return o.share(t)
	}
	entries := make([]Entry[K, V], len(keys))
	for i, k := range keys {
		entries[i].Key = k
	}
	sorted := o.SortEntries(entries, nil)
	o.reserveBatch(len(sorted))
	built := o.Build(sorted)
	out := o.Difference(t, built)
	o.Release(built)
	return out
}

// ForEach visits borrowed tree t in key order.  Pure reads.
func (o *Ops[K, V, A]) ForEach(t *Node[K, V, A], f func(K, V)) {
	if t == nil {
		return
	}
	if t.leaf != nil {
		for _, e := range t.run() {
			f(e.Key, e.Val)
		}
		return
	}
	o.ForEach(t.left, f)
	f(t.key, t.val)
	o.ForEach(t.right, f)
}

// ForEachCond visits borrowed tree t in key order until f returns false;
// it reports whether the walk ran to completion.
func (o *Ops[K, V, A]) ForEachCond(t *Node[K, V, A], f func(K, V) bool) bool {
	if t == nil {
		return true
	}
	if t.leaf != nil {
		return eachCond(t.run(), f)
	}
	if !o.ForEachCond(t.left, f) {
		return false
	}
	if !f(t.key, t.val) {
		return false
	}
	return o.ForEachCond(t.right, f)
}

// eachCond visits a run until f returns false, reporting whether it ran to
// completion.
func eachCond[K, V any](run []Entry[K, V], f func(K, V) bool) bool {
	for _, e := range run {
		if !f(e.Key, e.Val) {
			return false
		}
	}
	return true
}

// ForEachCondFrom visits borrowed tree t's entries with key ≥ lo in key
// order until f returns false; it reports whether the walk ran to
// completion.  The pre-lo prefix is skipped structurally (O(log n) to
// reach the first qualifying entry), so a short scan near lo never touches
// the rest of the tree.
func (o *Ops[K, V, A]) ForEachCondFrom(t *Node[K, V, A], lo K, f func(K, V) bool) bool {
	if t == nil {
		return true
	}
	if t.leaf != nil {
		run := t.run()
		i, _ := o.search(run, lo)
		return eachCond(run[i:], f)
	}
	if o.Cmp(t.key, lo) < 0 {
		// t and everything left of it are below lo.
		return o.ForEachCondFrom(t.right, lo, f)
	}
	if !o.ForEachCondFrom(t.left, lo, f) {
		return false
	}
	if !f(t.key, t.val) {
		return false
	}
	return o.ForEachCond(t.right, f)
}

// Entries returns the contents of borrowed tree t in key order.
func (o *Ops[K, V, A]) Entries(t *Node[K, V, A]) []Entry[K, V] {
	out := make([]Entry[K, V], 0, size(t))
	o.ForEach(t, func(k K, v V) { out = append(out, Entry[K, V]{k, v}) })
	return out
}

// RangeEntries returns the entries of borrowed tree t with lo ≤ key ≤ hi.
func (o *Ops[K, V, A]) RangeEntries(t *Node[K, V, A], lo, hi K) []Entry[K, V] {
	var out []Entry[K, V]
	o.visitRange(t, lo, hi, func(k K, v V) { out = append(out, Entry[K, V]{k, v}) })
	return out
}

func (o *Ops[K, V, A]) visitRange(t *Node[K, V, A], lo, hi K, f func(K, V)) {
	if t == nil {
		return
	}
	if t.leaf != nil {
		for _, e := range o.between(t.run(), lo, hi) {
			f(e.Key, e.Val)
		}
		return
	}
	geLo := o.Cmp(t.key, lo) >= 0
	leHi := o.Cmp(t.key, hi) <= 0
	if geLo {
		o.visitRange(t.left, lo, hi, f)
		if leHi {
			f(t.key, t.val)
		}
	}
	if leHi {
		o.visitRange(t.right, lo, hi, f)
	}
}

// between returns the entries of a run with lo ≤ key ≤ hi.
func (o *Ops[K, V, A]) between(run []Entry[K, V], lo, hi K) []Entry[K, V] {
	i, _ := o.search(run, lo)
	run = run[i:]
	_, j := o.span(run, hi)
	return run[:j]
}

// AugRange returns the augmented value of the entries of borrowed tree t
// with lo ≤ key ≤ hi in O(log n) time — the paper's range-sum query
// (Section 7.1) when used with SumAug.
func (o *Ops[K, V, A]) AugRange(t *Node[K, V, A], lo, hi K) A {
	for t != nil {
		if t.leaf != nil {
			return o.foldRun(o.between(t.run(), lo, hi))
		}
		if o.Cmp(t.key, lo) < 0 {
			t = t.right
			continue
		}
		if o.Cmp(t.key, hi) > 0 {
			t = t.left
			continue
		}
		// lo ≤ t.key ≤ hi: the range straddles this node.
		a := o.augGE(t.left, lo)
		a = o.Aug.Combine(a, o.Aug.Single(t.key, t.val))
		return o.Aug.Combine(a, o.augLE(t.right, hi))
	}
	return o.Aug.Zero()
}

// augGE folds the augmentation of all entries with key ≥ lo.
func (o *Ops[K, V, A]) augGE(t *Node[K, V, A], lo K) A {
	a := o.Aug.Zero()
	for t != nil {
		if t.leaf != nil {
			run := t.run()
			i, _ := o.search(run, lo)
			return o.Aug.Combine(o.foldRun(run[i:]), a)
		}
		if o.Cmp(t.key, lo) < 0 {
			t = t.right
			continue
		}
		// t.key ≥ lo: everything right of t (and t itself) qualifies.
		e := o.Aug.Single(t.key, t.val)
		if t.right != nil {
			e = o.Aug.Combine(e, t.right.aug)
		}
		a = o.Aug.Combine(e, a)
		t = t.left
	}
	return a
}

// augLE folds the augmentation of all entries with key ≤ hi.
func (o *Ops[K, V, A]) augLE(t *Node[K, V, A], hi K) A {
	a := o.Aug.Zero()
	for t != nil {
		if t.leaf != nil {
			run := t.run()
			_, j := o.span(run, hi)
			return o.Aug.Combine(a, o.foldRun(run[:j]))
		}
		if o.Cmp(t.key, hi) > 0 {
			t = t.left
			continue
		}
		e := o.Aug.Single(t.key, t.val)
		if t.left != nil {
			e = o.Aug.Combine(t.left.aug, e)
		}
		a = o.Aug.Combine(a, e)
		t = t.right
	}
	return a
}

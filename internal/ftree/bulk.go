package ftree

import (
	"slices"
	"sync"
)

// Build constructs a perfectly balanced owned tree from entries sorted by
// key with no duplicates, cutting the input into leaves directly and
// consuming the entries' values.  The leaves are as few as hold the input
// and as evenly filled as they can be — their fills differ by at most one
// entry — whatever the input's length.  O(n) work, O(log n) span with
// parallel halves.
func (o *Ops[K, V, A]) Build(entries []Entry[K, V]) *Node[K, V, A] {
	return o.buildFork(entries, leavesFor(len(entries)))
}

// buildFork is Build over the given number of leaves, forking halves of
// more than Grain entries.
func (o *Ops[K, V, A]) buildFork(entries []Entry[K, V], leaves int) *Node[K, V, A] {
	if o.Grain <= 0 || len(entries) <= o.Grain || leaves == 1 {
		return o.buildLeaves(entries, leaves)
	}
	mid, ll := cut(len(entries), leaves)
	var l, r *Node[K, V, A]
	o.maybeParallel(int64(len(entries)),
		func(o *Ops[K, V, A]) { l = o.buildFork(entries[:mid], ll) },
		func(o *Ops[K, V, A]) { r = o.buildFork(entries[mid+1:], leaves-ll) },
	)
	return o.mk(l, entries[mid].Key, entries[mid].Val, r)
}

// build is Build's sequential case.  It captures nothing, so a caller's
// stack-allocated run stays on the stack.
func (o *Ops[K, V, A]) build(entries []Entry[K, V]) *Node[K, V, A] {
	return o.buildLeaves(entries, leavesFor(len(entries)))
}

// buildLeaves is build over the given number of leaves.
func (o *Ops[K, V, A]) buildLeaves(entries []Entry[K, V], leaves int) *Node[K, V, A] {
	if leaves == 1 {
		return o.leafOf(entries)
	}
	mid, ll := cut(len(entries), leaves)
	return o.mk(o.buildLeaves(entries[:mid], ll), entries[mid].Key, entries[mid].Val, o.buildLeaves(entries[mid+1:], leaves-ll))
}

// leavesFor is how many leaves Build cuts n entries into: the fewest that
// hold them.  A tree of L leaves has L−1 internal entries, so L leaves hold
// n entries when n+1 ≤ L·(leafMax+1).
func leavesFor(n int) int { return (n + leafMax + 1) / (leafMax + 1) }

// cut splits a build of n entries over the given number of leaves (at least
// two): the left subtree takes ll = leaves/2 of them and entries[:mid],
// entries[mid] is the root's.  Every leaf gets fill or fill+1 entries, the
// extra ones going left first.  Every subtree of two or more leaves holds
// more than leafMax entries, so mk makes it an internal node: two leaves
// alone are a build of more than leafMax, and from three leaves on the
// fewest that hold n entries carry at least 20 each.
func cut(n, leaves int) (mid, ll int) {
	ll = leaves / 2
	inLeaves := n - (leaves - 1)
	fill, extra := inLeaves/leaves, inLeaves%leaves
	return ll*fill + min(ll, extra) + ll - 1, ll
}

// SortEntries sorts a batch by key and coalesces duplicates, applying comb
// left-to-right (nil comb keeps the last occurrence).  The input slice is
// reordered in place and the result aliases it.  This is the preprocessing
// step of MultiInsert.  A batch that is already strictly ascending — a
// follower replaying what a leader sorted, a caller that batches in key
// order — is returned after the one pass that finds it so.
func (o *Ops[K, V, A]) SortEntries(batch []Entry[K, V], comb func(old, new V) V) []Entry[K, V] {
	ascending := true
	for i := 1; i < len(batch) && ascending; i++ {
		ascending = o.Cmp(batch[i-1].Key, batch[i].Key) < 0
	}
	if ascending {
		return batch // sorted, and no two keys equal
	}
	o.sortStable(batch)
	out := batch[:1]
	for _, e := range batch[1:] {
		last := &out[len(out)-1]
		switch {
		case o.Cmp(last.Key, e.Key) != 0:
			out = append(out, e)
		case comb != nil:
			last.Val = comb(last.Val, e.Val)
		default:
			o.releaseVal(last.Val) // superseded duplicate
			last.Val = e.Val
		}
	}
	return out
}

// sortKeep is the longest batch whose merge buffer an arena keeps: 64 KiB
// of int64 pairs, several times what a combiner gathers at once.  A bulk load's
// buffer — a million-entry batch wants 16 MiB — is allocated for the one
// sort and dropped, not parked in a pid's arena for good.
const sortKeep = 4096

// sortStable sorts a batch by key, keeping the order of equal keys: through
// Cmp in place, or, for keys in their own order, by the kernel's merge sort.
func (o *Ops[K, V, A]) sortStable(batch []Entry[K, V]) {
	kern, a := o.typed, o.arena
	switch {
	case kern == nil:
		slices.SortStableFunc(batch, func(a, b Entry[K, V]) int { return o.Cmp(a.Key, b.Key) })
	case a == nil || len(batch) > sortKeep:
		kern.sort(batch, nil)
	default:
		// A bound view keeps the merge buffer in its arena, so a warm sort
		// allocates nothing; it must not keep the values alive with it.
		a.sorted = kern.sort(batch, a.sorted)
		if !o.plainLeaves {
			clear(a.sorted[:min(len(a.sorted), len(batch))])
		}
	}
}

// MultiInsert returns a new owned tree equal to borrowed t with the whole
// batch inserted atomically — PAM's multi_insert, the primitive behind the
// paper's batched single writer (Section 7.2 and Appendix F) — in the
// PaC-tree shape: the batch is sorted and coalesced in place once, then one
// descent carries it down as a slice (insertRun).  For a key already in t,
// the stored value becomes comb(old, new); nil comb overwrites.
func (o *Ops[K, V, A]) MultiInsert(t *Node[K, V, A], batch []Entry[K, V], comb func(old, new V) V) *Node[K, V, A] {
	return o.InsertSorted(t, o.SortEntries(batch, comb), comb)
}

// InsertSorted is MultiInsert for a batch already sorted by key without
// duplicates, as SortEntries leaves it — for a caller that wants the
// coalesced batch as well as the tree.
func (o *Ops[K, V, A]) InsertSorted(t *Node[K, V, A], sorted []Entry[K, V], comb func(old, new V) V) *Node[K, V, A] {
	return o.insertRun(landing[K, V, A]{t: t, batch: sorted}, comb)
}

// landing is one step of MultiInsert's descent: a batch, sorted by key
// without duplicates, whose values the step consumes, and what it lands
// on, which the step borrows — subtree t or, with t nil, entries [lo, hi)
// of live leaf leaf: the part of its run that a batch larger than a leaf
// cut in two.
type landing[K, V, A any] struct {
	t      *Node[K, V, A]
	leaf   *Node[K, V, A]
	lo, hi int
	batch  []Entry[K, V]
}

// insertRun is MultiInsert's descent.  A side no batch entry reaches is
// shared, never copied, so the work is the batch's paths and nothing else.
func (o *Ops[K, V, A]) insertRun(at landing[K, V, A], comb func(old, new V) V) *Node[K, V, A] {
	t, lf, lo, hi, batch := at.t, at.leaf, at.lo, at.hi, at.batch
	switch {
	case len(batch) == 0 && t != nil:
		return o.share(t)
	case len(batch) == 0:
		return o.leafFrom(lf, lo, hi, true)
	case t != nil && t.fill != 0:
		t, lf, lo, hi = nil, t, 0, int(t.fill)
	}
	var e Entry[K, V]
	var l, r *Node[K, V, A]
	switch {
	case t != nil:
		// An internal node: its key cuts the batch.  Both children's
		// weights are read before either child is descended into, which
		// asks for the second one's cache line — for its own descent, or
		// for the locked add of a share when no entry reaches it — while
		// the first is being worked on.
		wl, wr := weight(t.left), weight(t.right)
		i, j := o.span(batch, t.key)
		if i < j {
			e = o.over(t.val, batch[i], comb)
		} else {
			e = Entry[K, V]{t.key, o.retainVal(t.val)}
		}
		l, r = o.insertBoth(landing[K, V, A]{t: t.left, batch: batch[:i]}, landing[K, V, A]{t: t.right, batch: batch[j:]}, comb)
		if weight(l) == wl && weight(r) == wr {
			// Nothing but replaces below: the two are what t's children
			// were to Join, balanced and too many for one leaf.
			return o.mkInternal(l, e.Key, e.Val, r)
		}
	case lo == hi:
		return o.Build(batch)
	case len(batch) <= leafMax:
		return o.mergeRun(lf, lo, hi, batch, comb)
	default:
		// More than a leaf's worth lands on one run: the batch's median
		// cuts the run, so both halves stay stretches of the same leaf.
		mid := len(batch) / 2
		e = batch[mid]
		i, j := o.spanIn(lf, lo, hi, e.Key)
		if i < j {
			e = o.over(lf.leafVal(i), e, comb)
		}
		l, r = o.insertBoth(landing[K, V, A]{leaf: lf, lo: lo, hi: i, batch: batch[:mid]}, landing[K, V, A]{leaf: lf, lo: j, hi: hi, batch: batch[mid+1:]}, comb)
	}
	return o.Join(l, e.Key, e.Val, r)
}

// over is the entry a batched insert stores for a key the tree already
// holds under value old.  A plain replace leaves old owned by the old
// version.
func (o *Ops[K, V, A]) over(old V, e Entry[K, V], comb func(old, new V) V) Entry[K, V] {
	if comb != nil {
		e.Val = comb(o.retainVal(old), e.Val)
	}
	return e
}

// insertBoth runs the two halves of an insertRun step.  The left half is
// forked onto its own goroutine only when BOTH batches exceed the grain:
// the grain measures the work, which is the batch, not the tree under it —
// a combiner batch of a few hundred entries never forks however large the
// tree.  A forked half runs on the unbound root, because an arena-bound
// view is single-owner (see maybeParallel); the worker is a plain method,
// so a step that does not fork allocates nothing.
func (o *Ops[K, V, A]) insertBoth(lat, rat landing[K, V, A], comb func(old, new V) V) (l, r *Node[K, V, A]) {
	if !o.forks(len(lat.batch), len(rat.batch)) {
		return o.insertRun(lat, comb), o.insertRun(rat, comb)
	}
	var f forked[K, V, A]
	f.wg.Add(1)
	go o.Unbound().insertFork(&f, lat, comb)
	r = o.insertRun(rat, comb)
	f.wg.Wait()
	return f.out, r
}

// forks reports whether a batched step with these two sub-batch sizes runs
// its halves in parallel.
func (o *Ops[K, V, A]) forks(l, r int) bool { return o.Grain > 0 && l > o.Grain && r > o.Grain }

// forked is where the forked half of a batched step leaves its result.
type forked[K, V, A any] struct {
	wg      sync.WaitGroup
	out     *Node[K, V, A]
	changed bool // deleteRun's second result
}

func (o *Ops[K, V, A]) insertFork(f *forked[K, V, A], at landing[K, V, A], comb func(old, new V) V) {
	defer f.wg.Done()
	f.out = o.insertRun(at, comb)
}

// MultiDelete returns a new owned tree equal to borrowed t with every key
// of the batch removed, by the same descent as MultiInsert.  keys is
// sorted in place; duplicates are harmless.
func (o *Ops[K, V, A]) MultiDelete(t *Node[K, V, A], keys []K) *Node[K, V, A] {
	slices.SortFunc(keys, o.Cmp)
	if out, changed := o.deleteRun(t, keys); changed {
		return out
	}
	return o.share(t)
}

// deleteRun searches borrowed t for the sorted keys.  When any is present
// it returns the new owned tree without them; otherwise changed is false
// and no reference count was touched.  A second copy of a key lands in a
// subtree that cannot hold it and finds nothing, so keys need not be
// unique.
func (o *Ops[K, V, A]) deleteRun(t *Node[K, V, A], keys []K) (out *Node[K, V, A], changed bool) {
	if t == nil || len(keys) == 0 {
		return nil, false
	}
	if t.fill != 0 {
		return o.leafDeleteRun(t, keys)
	}
	i, found := slices.BinarySearchFunc(keys, t.key, o.Cmp)
	lk, rk := keys[:i], keys[i:]
	if found {
		rk = rk[1:]
	}
	var l, r *Node[K, V, A]
	var lc, rc bool
	if o.forks(len(lk), len(rk)) {
		var f forked[K, V, A]
		f.wg.Add(1)
		go o.Unbound().deleteFork(&f, t.left, lk)
		r, rc = o.deleteRun(t.right, rk)
		f.wg.Wait()
		l, lc = f.out, f.changed
	} else {
		l, lc = o.deleteRun(t.left, lk)
		r, rc = o.deleteRun(t.right, rk)
	}
	if !lc && !rc && !found {
		return nil, false
	}
	if !lc {
		l = o.share(t.left)
	}
	if !rc {
		r = o.share(t.right)
	}
	if found {
		return o.Join2(l, r), true
	}
	return o.Join(l, t.key, o.retainVal(t.val), r), true
}

func (o *Ops[K, V, A]) deleteFork(f *forked[K, V, A], t *Node[K, V, A], keys []K) {
	defer f.wg.Done()
	f.out, f.changed = o.deleteRun(t, keys)
}

// ForEach visits borrowed tree t in key order.  Pure reads.
func (o *Ops[K, V, A]) ForEach(t *Node[K, V, A], f func(K, V)) {
	if t == nil {
		return
	}
	if t.fill != 0 {
		eachIn(t, 0, int(t.fill), func(k K, v V) bool { f(k, v); return true })
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
	if t.fill != 0 {
		return eachIn(t, 0, int(t.fill), f)
	}
	if !o.ForEachCond(t.left, f) {
		return false
	}
	if !f(t.key, t.val) {
		return false
	}
	return o.ForEachCond(t.right, f)
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
	if t.fill != 0 {
		i, _ := o.searchLeaf(t, lo)
		return eachIn(t, i, int(t.fill), f)
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
	if t.fill != 0 {
		i, j := o.between(t, lo, hi)
		eachIn(t, i, j, func(k K, v V) bool { f(k, v); return true })
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

// between brackets the entries of leaf n with lo ≤ key ≤ hi: [i, j).
func (o *Ops[K, V, A]) between(n *Node[K, V, A], lo, hi K) (i, j int) {
	i, _ = o.searchLeaf(n, lo)
	_, j = o.spanIn(n, i, int(n.fill), hi)
	return i, j
}

// AugRange returns the augmented value of the entries of borrowed tree t
// with lo ≤ key ≤ hi in O(log n) time — the paper's range-sum query
// (Section 7.1) when used with SumAug.
func (o *Ops[K, V, A]) AugRange(t *Node[K, V, A], lo, hi K) A {
	for t != nil {
		if t.fill != 0 {
			i, j := o.between(t, lo, hi)
			return o.foldIn(t, i, j)
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
		if t.fill != 0 {
			i, _ := o.searchLeaf(t, lo)
			return o.Aug.Combine(o.foldIn(t, i, int(t.fill)), a)
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
		if t.fill != 0 {
			_, j := o.spanIn(t, 0, int(t.fill), hi)
			return o.Aug.Combine(a, o.foldIn(t, 0, j))
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

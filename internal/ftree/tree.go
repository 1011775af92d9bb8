package ftree

// Weight-balanced (BB[α]) trees with α = 1/4: two subtrees may hang from
// the same node iff neither weight exceeds three times the other.  α = 1/4
// lies in the range for which the join-based algorithms of Blelloch,
// Ferizovic and Sun ("Just Join for Parallel Ordered Sets", SPAA 2016) —
// the algorithms inside the PAM library used by the paper — preserve
// balance.

// balancedWeights reports whether weights wl and wr may be siblings.
func balancedWeights(wl, wr int64) bool { return wl <= 3*wr && wr <= 3*wl }

// joinable reports whether mk may join trees l and r directly: they are
// balanced siblings, or small enough that mk folds them into one leaf.
func joinable[K, V, A any](l, r *Node[K, V, A]) bool {
	return size(l)+size(r) < leafMax || balancedWeights(weight(l), weight(r))
}

// Join combines owned trees l and r and entry (k, v) where every key of l
// is less than k and every key of r is greater, rebalancing as needed.
// O(|log w(l) − log w(r)|) amortized.  Consumes l and r.
func (o *Ops[K, V, A]) Join(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	switch {
	case joinable(l, r):
		return o.mk(l, k, v, r)
	case weight(l) > weight(r):
		return o.joinRight(l, k, v, r)
	default:
		return o.joinLeft(l, k, v, r)
	}
}

// joinRight handles w(l) > 3·w(r): descend l's right spine until the join
// balances, then restore balance on the way up with the single/double
// rotations of joinRightWB (Just Join, Figure 1).  Consumes l and r.
func (o *Ops[K, V, A]) joinRight(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	lk, lv, ll, lr := o.decompose(l)
	var t1 *Node[K, V, A]
	if joinable(lr, r) {
		t1 = o.mk(lr, k, v, r)
	} else {
		t1 = o.joinRight(lr, k, v, r)
	}
	if joinable(ll, t1) {
		return o.mk(ll, lk, lv, t1)
	}
	// t1 grew too heavy for ll.  Expose t1 = (l1, k1, r1) and rotate.
	k1, v1, l1, r1 := o.decompose(t1)
	if balancedWeights(weight(ll), weight(l1)) &&
		balancedWeights(weight(ll)+weight(l1), weight(r1)) {
		// single left rotation: ((ll lk l1) k1 r1)
		return o.mk(o.mk(ll, lk, lv, l1), k1, v1, r1)
	}
	// double rotation: rotate l1 right inside t1, then the whole left.
	k2, v2, l1l, l1r := o.decompose(l1)
	return o.mk(o.mk(ll, lk, lv, l1l), k2, v2, o.mk(l1r, k1, v1, r1))
}

// joinLeft mirrors joinRight for w(r) > 3·w(l).  Consumes l and r.
func (o *Ops[K, V, A]) joinLeft(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	rk, rv, rl, rr := o.decompose(r)
	var t1 *Node[K, V, A]
	if joinable(l, rl) {
		t1 = o.mk(l, k, v, rl)
	} else {
		t1 = o.joinLeft(l, k, v, rl)
	}
	if joinable(t1, rr) {
		return o.mk(t1, rk, rv, rr)
	}
	k1, v1, l1, r1 := o.decompose(t1)
	if balancedWeights(weight(r1), weight(rr)) &&
		balancedWeights(weight(r1)+weight(rr), weight(l1)) {
		// single right rotation: (l1 k1 (r1 rk rr))
		return o.mk(l1, k1, v1, o.mk(r1, rk, rv, rr))
	}
	// double rotation through r1.
	k2, v2, r1l, r1r := o.decompose(r1)
	return o.mk(o.mk(l1, k1, v1, r1l), k2, v2, o.mk(r1r, rk, rv, rr))
}

// Join2 concatenates owned trees l and r (all keys of l below all keys of
// r) without a middle entry.  Consumes both.
func (o *Ops[K, V, A]) Join2(l, r *Node[K, V, A]) *Node[K, V, A] {
	if l == nil {
		return r
	}
	l2, k, v := o.splitLast(l)
	return o.Join(l2, k, v, r)
}

// splitLast removes the maximum entry from owned tree t, returning the
// remaining tree and the entry.  Consumes t.
func (o *Ops[K, V, A]) splitLast(t *Node[K, V, A]) (rest *Node[K, V, A], k K, v V) {
	if t.fill != 0 {
		rest, _, e := o.carve(t, int(t.fill)-1, int(t.fill))
		return rest, e.Key, e.Val
	}
	tk, tv, l, r := o.decompose(t)
	if r == nil {
		return l, tk, tv
	}
	r2, k, v := o.splitLast(r)
	return o.Join(l, tk, tv, r2), k, v
}

// Split divides borrowed tree t by key k into owned trees of keys below
// and above k, reporting k's value if present.  O(log n).
func (o *Ops[K, V, A]) Split(t *Node[K, V, A], k K) (l, r *Node[K, V, A], found bool, fv V) {
	if t == nil {
		return nil, nil, false, fv
	}
	if t.fill != 0 {
		l, r, found, fv = o.splitOwned(o.share(t), k)
		if found {
			o.releaseVal(fv) // reported borrowed: t keeps its own reference
		}
		return l, r, found, fv
	}
	c := o.Cmp(k, t.key)
	switch {
	case c == 0:
		return o.share(t.left), o.share(t.right), true, t.val
	case c < 0:
		ll, lr, f, v := o.Split(t.left, k)
		return ll, o.Join(lr, t.key, o.retainVal(t.val), o.share(t.right)), f, v
	default:
		rl, rr, f, v := o.Split(t.right, k)
		return o.Join(o.share(t.left), t.key, o.retainVal(t.val), rl), rr, f, v
	}
}

// splitOwned is Split for an owned tree: it consumes its token on t, which
// lets union-style algorithms destructure exclusively-owned intermediate
// trees without touching shared subtrees.
func (o *Ops[K, V, A]) splitOwned(t *Node[K, V, A], k K) (l, r *Node[K, V, A], found bool, fv V) {
	if t == nil {
		return nil, nil, false, fv
	}
	if t.fill != 0 {
		i, j := o.spanIn(t, 0, int(t.fill), k)
		l, r, e := o.carve(t, i, j)
		return l, r, i < j, e.Val
	}
	tk, tv, tl, tr := o.decompose(t)
	c := o.Cmp(k, tk)
	switch {
	case c == 0:
		return tl, tr, true, tv
	case c < 0:
		ll, lr, f, v := o.splitOwned(tl, k)
		return ll, o.Join(lr, tk, tv, tr), f, v
	default:
		rl, rr, f, v := o.splitOwned(tr, k)
		return o.Join(tl, tk, tv, rl), rr, f, v
	}
}

// Find looks k up in borrowed tree t.  Pure reads: no reference-count
// traffic, no synchronization — this is why the paper's read transactions
// are delay-free.
func (o *Ops[K, V, A]) Find(t *Node[K, V, A], k K) (V, bool) {
	for t != nil {
		if t.fill != 0 {
			if i, found := o.searchLeaf(t, k); found {
				return t.leafVal(i), true
			}
			break
		}
		c := o.Cmp(k, t.key)
		if c == 0 {
			return t.val, true
		}
		if c < 0 {
			t = t.left
		} else {
			t = t.right
		}
	}
	var zero V
	return zero, false
}

// findWidth is how many lookups FindBatch keeps in flight.  DESIGN.md ("The
// read side") has the measurements at 4, 8, 16 and 32.
const findWidth = 16

// FindBatch looks keys[i] up in borrowed tree t into vals[i] and found[i]
// (both at least len(keys) long), as len(keys) calls of Find would.  It
// descends findWidth lookups in lockstep: a round first touches every live
// cursor's node — loads with nothing between them, so their cache misses
// are all in flight together where back-to-back Finds take them one after
// another — and then steps each cursor down one node.  A cursor that
// reaches a leaf searches its run in that step, and one that finishes
// restarts at the root on the next key.
func (o *Ops[K, V, A]) FindBatch(t *Node[K, V, A], keys []K, vals []V, found []bool) {
	if t == nil {
		clear(vals[:len(keys)])
		clear(found[:len(keys)])
		return
	}
	var (
		cur  [findWidth]*Node[K, V, A] // never nil
		at   [findWidth]int            // cursor c serves keys[at[c]]
		fill [findWidth]uint16         // cur[c].fill
	)
	live := min(findWidth, len(keys))
	next := live // first key no cursor has taken yet
	for c := 0; c < live; c++ {
		cur[c], at[c] = t, c
	}
	for live > 0 {
		for c := 0; c < live; c++ {
			fill[c] = cur[c].fill
		}
		for c := 0; c < live; {
			n, i := cur[c], at[c]
			var v V
			ok := false
			if fill[c] != 0 {
				if j, hit := o.searchIn(n, 0, int(fill[c]), keys[i]); hit {
					v, ok = n.leafVal(j), true
				}
			} else if cmp := o.Cmp(keys[i], n.key); cmp == 0 {
				v, ok = n.val, true
			} else {
				// Both children are loaded before the choice so that it
				// compiles to a conditional move, not a branch that
				// mispredicts every other time.
				l, child := n.left, n.right
				if cmp < 0 {
					child = l
				}
				if child != nil {
					cur[c] = child
					c++
					continue
				}
			}
			vals[i], found[i] = v, ok
			if next < len(keys) {
				cur[c], at[c] = t, next // steps from the next round on
				next++
				c++
			} else {
				live--
				cur[c], at[c], fill[c] = cur[live], at[live], fill[live]
			}
		}
	}
}

// Has reports whether k is present in borrowed tree t.
func (o *Ops[K, V, A]) Has(t *Node[K, V, A], k K) bool {
	_, ok := o.Find(t, k)
	return ok
}

// Insert returns a new owned tree equal to borrowed t with (k, v) added,
// replacing any existing value for k.  The original version is untouched
// (path copying, Figure 2).  O(log n).
func (o *Ops[K, V, A]) Insert(t *Node[K, V, A], k K, v V) *Node[K, V, A] {
	return o.InsertWith(t, k, v, nil)
}

// step is one level of a point write's descent: the internal node passed,
// which way the descent left it, and the weight of the child it did not
// take.
type step[K, V, A any] struct {
	n     *Node[K, V, A]
	right bool
	sibw  int64
}

// maxPath bounds the internal nodes on any root-to-leaf path, so a step
// record of this capacity never grows.  With α = 1/4 a child weighs at most
// 3/4 of its parent, an internal node weighs at least leafMax+2 and a tree
// of math.MaxInt64 entries weighs 2⁶³: log₄⸝₃(2⁶³/65) < 138.
// TestMaxPathBound derives the number.
const maxPath = 138

// descend walks borrowed t toward k and records the internal nodes it
// passes.  It returns the record and where the walk ended: nil, the leaf
// whose run brackets k, or the internal node that holds k.  No reference
// count is touched; the caller hands the record to rebuild, or to dropPath
// when there turns out to be nothing to write.
//
// The sibling's weight is loaded here although only rebuild's balance check
// reads it: the load asks for the sibling's cache line while the next path
// node's miss — which the walk cannot avoid and cannot start any earlier — is
// outstanding, so that rebuild's share, a locked add, hits instead of
// stalling on a line nobody asked for.  DESIGN.md ("The point write").
func (o *Ops[K, V, A]) descend(t *Node[K, V, A], k K) ([]step[K, V, A], *Node[K, V, A]) {
	// A bound view keeps the record in its arena, at a capacity no tree
	// outgrows, so a warm write allocates nothing.  It is taken by swap, like
	// Release's stack: a combine or retain callback that re-enters this view
	// finds nil and makes its own.  The unbound root has nowhere single-owner
	// to keep one and lets append grow it.
	var path []step[K, V, A]
	if a := o.arena; a != nil {
		if path, a.path = a.path, nil; path == nil {
			path = make([]step[K, V, A], 0, maxPath)
		}
	}
	for t != nil && t.fill == 0 {
		c := o.Cmp(k, t.key)
		if c == 0 {
			break
		}
		l, r := t.left, t.right
		if c < 0 {
			path = append(path, step[K, V, A]{t, false, weight(r)})
			t = l
		} else {
			path = append(path, step[K, V, A]{t, true, weight(l)})
			t = r
		}
	}
	return path, t
}

// dropPath returns a step record its holder is done with to the arena it
// came from.
func (o *Ops[K, V, A]) dropPath(path []step[K, V, A]) {
	if a := o.arena; a != nil {
		a.path = path[:0]
	}
}

// rebuild is the way back up from descend: owned tree c replaces the child
// the descent took at the last recorded step, and each step above it gets a
// copy of its node over the rebuilt child and the shared sibling.  Consumes
// c and the record.
//
// A step whose two weights balance, with more than a leaf's worth between
// them, is what Join would hand straight to mk, and is filled directly.
// That is every step of a replace: the child's size did not change, so the
// step's node — balanced and internal when the descent passed it — still
// is.  Anything else (a leaf that split or emptied far enough to tip a
// node, a pair that now fits one leaf) goes through Join.
func (o *Ops[K, V, A]) rebuild(path []step[K, V, A], c *Node[K, V, A]) *Node[K, V, A] {
	for i := len(path) - 1; i >= 0; i-- {
		s := &path[i]
		n := s.n
		l, r := c, c
		if s.right {
			l = o.share(n.left)
		} else {
			r = o.share(n.right)
		}
		v := o.retainVal(n.val)
		if size(c)+s.sibw > leafMax && balancedWeights(weight(c), s.sibw) {
			c = o.mkInternal(l, n.key, v, r)
		} else {
			c = o.Join(l, n.key, v, r)
		}
	}
	o.dropPath(path)
	return c
}

// InsertWith is Insert with a combine function applied when k is already
// present: the stored value becomes comb(old, v).  A nil comb replaces.
func (o *Ops[K, V, A]) InsertWith(t *Node[K, V, A], k K, v V, comb func(old, new V) V) *Node[K, V, A] {
	path, t := o.descend(t, k)
	switch {
	case t == nil:
		t = o.mk(nil, k, v, nil)
	case t.fill != 0:
		t = o.leafInsert(t, k, v, comb)
	default: // k sits at internal node t
		if comb != nil {
			v = comb(o.retainVal(t.val), v)
		} // plain replace: the old value stays owned by the old node
		t = o.mkInternal(o.share(t.left), k, v, o.share(t.right))
	}
	return o.rebuild(path, t)
}

// Delete returns a new owned tree equal to borrowed t with k removed.
// When k is absent the result shares the whole input.  One traversal in
// either case: the descent looks for k and the path-copied spine is only
// built once k was found, so an absent key costs a pure search, touches no
// reference count but the root's and allocates nothing.  O(log n).
func (o *Ops[K, V, A]) Delete(t *Node[K, V, A], k K) *Node[K, V, A] {
	path, at := o.descend(t, k)
	var out *Node[K, V, A]
	found := false
	switch {
	case at == nil:
	case at.fill != 0:
		out, found = o.leafDelete(at, k)
	default: // k sits at internal node at
		out, found = o.Join2(o.share(at.left), o.share(at.right)), true
	}
	if !found {
		o.dropPath(path)
		return o.share(t)
	}
	return o.rebuild(path, out)
}

// Size returns the number of keys in borrowed tree t.
func (o *Ops[K, V, A]) Size(t *Node[K, V, A]) int64 { return size(t) }

// Min returns the smallest entry of borrowed tree t.
func (o *Ops[K, V, A]) Min(t *Node[K, V, A]) (Entry[K, V], bool) {
	if t == nil {
		return Entry[K, V]{}, false
	}
	for t.fill == 0 && t.left != nil {
		t = t.left
	}
	if t.fill != 0 {
		return t.leafEntry(0), true
	}
	return Entry[K, V]{t.key, t.val}, true
}

// Max returns the largest entry of borrowed tree t.
func (o *Ops[K, V, A]) Max(t *Node[K, V, A]) (Entry[K, V], bool) {
	if t == nil {
		return Entry[K, V]{}, false
	}
	for t.fill == 0 && t.right != nil {
		t = t.right
	}
	if t.fill != 0 {
		return t.leafEntry(int(t.fill) - 1), true
	}
	return Entry[K, V]{t.key, t.val}, true
}

// Select returns the entry with zero-based rank i in borrowed tree t.
func (o *Ops[K, V, A]) Select(t *Node[K, V, A], i int64) (Entry[K, V], bool) {
	for t != nil {
		if t.fill != 0 {
			if i < 0 || i >= int64(t.fill) {
				break
			}
			return t.leafEntry(int(i)), true
		}
		ls := size(t.left)
		switch {
		case i < ls:
			t = t.left
		case i == ls:
			return Entry[K, V]{t.key, t.val}, true
		default:
			i -= ls + 1
			t = t.right
		}
	}
	return Entry[K, V]{}, false
}

// Rank returns the number of keys in borrowed tree t strictly below k.
func (o *Ops[K, V, A]) Rank(t *Node[K, V, A], k K) int64 {
	var r int64
	for t != nil {
		if t.fill != 0 {
			i, _ := o.searchLeaf(t, k)
			return r + int64(i)
		}
		if o.Cmp(k, t.key) <= 0 {
			t = t.left
		} else {
			r += size(t.left) + 1
			t = t.right
		}
	}
	return r
}

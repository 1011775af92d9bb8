package ftree

// Iter is an in-order iterator over a borrowed tree, with O(log n) seek
// and amortized O(1) advance.  It holds no tokens: the tree version must
// stay live (e.g. inside a read transaction) for the iterator's lifetime.
// Because versions are immutable, iterators never observe mutation and
// need no invalidation protocol — one more consequence of the functional
// representation.
//
// The cursor is a path of pending nodes plus a position: an internal
// node's single entry, or an index into a leaf's run.  Next inside a leaf
// is an index increment; only crossing a leaf boundary touches the stack.
// The cursor holds no copy of the current key: through a *Node a leaf's
// key field does not exist (unit.go), so Key reads the leaf's run and an
// internal node's field only once the fill word has said which it is.
//
// An Iter is reusable: Reset and SeekGE re-position it on a (possibly
// different) tree of the same Ops family while keeping the descent
// stack's backing array, so a warm re-seek allocates nothing.  That is
// what makes iterators poolable — the shard layer keeps S of them parked
// per scan slot and re-seeks them for every scan (see internal/shard's
// scan state pool).  Like an Arena, a given Iter is single-owner state:
// it may be reused freely, but never concurrently.
type Iter[K, V, A any] struct {
	ops   *Ops[K, V, A]
	stack []*Node[K, V, A] // path of nodes whose entries are all still pending
	cur   *Node[K, V, A]   // node holding the current entry; nil when exhausted
	idx   int              // position in cur's run when cur is a leaf
}

// NewIter returns an iterator positioned at t's smallest entry; Valid
// reports whether any entry exists.
func (o *Ops[K, V, A]) NewIter(t *Node[K, V, A]) *Iter[K, V, A] {
	it := &Iter[K, V, A]{ops: o}
	it.Reset(t)
	return it
}

// NewIterAt returns an iterator positioned at the smallest entry with
// key ≥ k.
func (o *Ops[K, V, A]) NewIterAt(t *Node[K, V, A], k K) *Iter[K, V, A] {
	it := &Iter[K, V, A]{ops: o}
	it.SeekGE(t, k)
	return it
}

// Bind attaches a zero-value Iter to an Ops family so a pooled iterator
// can be created without going through NewIter's seek.  Reset or SeekGE
// must follow before use.
func (it *Iter[K, V, A]) Bind(o *Ops[K, V, A]) { it.ops = o }

// Reset re-positions the iterator at borrowed tree t's smallest entry,
// reusing the descent stack's backing array: after the stack has grown to
// the tree's height once, further Resets allocate nothing.
func (it *Iter[K, V, A]) Reset(t *Node[K, V, A]) {
	it.stack = it.stack[:0]
	it.descendLeft(t)
	it.advance()
}

// SeekGE re-positions the iterator at the smallest entry of borrowed tree
// t with key ≥ k, in O(log n).  Like Reset it keeps the stack's backing
// array, so a warm seek is allocation-free.
func (it *Iter[K, V, A]) SeekGE(t *Node[K, V, A], k K) {
	it.stack = it.stack[:0]
	for t != nil {
		if t.fill != 0 {
			if i, _ := it.ops.searchLeaf(t, k); i < int(t.fill) {
				it.cur, it.idx = t, i
				return
			}
			break
		}
		c := it.ops.Cmp(k, t.key)
		switch {
		case c == 0:
			it.stack = append(it.stack, t)
			t = nil
		case c < 0:
			it.stack = append(it.stack, t)
			t = t.left
		default:
			t = t.right
		}
	}
	it.advance()
}

func (it *Iter[K, V, A]) descendLeft(t *Node[K, V, A]) {
	for t != nil {
		it.stack = append(it.stack, t)
		if t.fill != 0 {
			return
		}
		t = t.left
	}
}

// advance moves to the first entry of the next pending node.
func (it *Iter[K, V, A]) advance() {
	it.idx = 0
	if len(it.stack) == 0 {
		it.cur = nil
		return
	}
	it.cur = it.stack[len(it.stack)-1]
	it.stack = it.stack[:len(it.stack)-1]
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iter[K, V, A]) Valid() bool { return it.cur != nil }

// Key returns the current entry's key; requires Valid.
func (it *Iter[K, V, A]) Key() K {
	if it.cur.fill != 0 {
		return it.cur.leafKey(it.idx)
	}
	return it.cur.key
}

// Val returns the current entry's value; requires Valid.
func (it *Iter[K, V, A]) Val() V {
	if it.cur.fill != 0 {
		return it.cur.leafVal(it.idx)
	}
	return it.cur.val
}

// Next moves to the following entry in key order.
func (it *Iter[K, V, A]) Next() {
	if it.cur == nil {
		return
	}
	if it.cur.fill != 0 {
		if it.idx++; it.idx < int(it.cur.fill) {
			return
		}
	} else {
		it.descendLeft(it.cur.right)
	}
	it.advance()
}

// Package ftree implements the purely functional (persistent)
// weight-balanced trees the paper builds its transactions on (Sections 2,
// 5.3 and 7), equivalent to the PAM library used in the paper's
// experiments: path-copying updates, join-based set operations (union,
// intersection, difference, multi-insert) with parallel divide-and-conquer,
// user-defined augmentation, and precise reference-counting garbage
// collection following Algorithm 5.
//
// # Layout: leaves
//
// A subtree of at most leafMax entries is ONE node — a leaf — whose
// entries sit sorted in one contiguous run inside the leaf's own object
// (the PaC-tree shape of Dhulipala, Blelloch, Gu and Sun, PLDI 2022).
// Internal nodes are the binary, one-entry, weight-balanced nodes of the
// paper and exist only above more than leafMax entries.  Size, balance and
// augmentation are counted in entries throughout, so a leaf is to every
// algorithm a perfectly balanced subtree of its size: mk folds children
// that fit into one leaf, decompose unfolds a leaf at its middle entry, and
// the join algorithms between those two are unchanged.  The hot paths do
// not unfold entry by entry; they have array base cases (leaf.go).  A
// leaf of integer keys that lie close together stores them as 16-bit
// offsets from its first key (a narrow leaf); which layout a leaf has
// follows from its keys alone.  DESIGN.md ("Leaf blocks") has the
// invariants and the measurements behind leafMax; unit.go has the leaf's
// layouts.
//
// # Ownership discipline
//
// Every node carries a reference count equal to the number of parent
// pointers in the memory graph plus the number of outstanding ownership
// tokens (a version root held by the transaction layer, or an intermediate
// result held by an operation in progress).  A leaf has one count for its
// whole run; entries have none.  All code manipulates nodes through four
// primitives, which make reference-count exactness compositional:
//
//   - mk(l, k, v, r) creates a node, consuming the caller's tokens on l
//     and r (they become parent edges, or their runs move into the new
//     leaf) and minting a token on the new node.
//   - share(t) mints a new token on a borrowed node (t.ref++).
//   - decompose(t) trades the caller's token on t for tokens on t's
//     children plus t's payload, freeing t when the token was the last.
//   - release(t) destroys a token: Algorithm 5's collect.
//
// Functions document whether they borrow or consume (own) their tree
// arguments; everything returned is owned by the caller.
//
// # Allocation
//
// An allocation unit is an internal node or a whole leaf; Allocs, Frees and
// Live count units.  With Recycle on, freed units are reused by the next
// mk.  An Ops view bound to an Arena (the per-pid magazine allocator,
// arena.go) recycles through the arena and counts in the arena's own
// tally: no lock and no locked instruction per unit.  The
// unbound root Ops recycles through the sharded mutex-protected depot that
// magazines spill to and refill from, and counts in sharded atomics.
package ftree

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// leafMax is the most entries one leaf holds: 63 int64 pairs and the
// leaf's header are one 1 KiB wide unit, 656 bytes narrow (unit.go).
// DESIGN.md ("Leaf blocks") records the measurements that chose it.  It is
// at most 64: mergeRun keeps a bit per batch entry in a uint64, and the
// package does not compile with more (the constants after mergeRun).
const leafMax = 63

// Node is an immutable tree node, addressed by its parent's child pointer:
// an internal node when fill is 0, otherwise a leaf whose run of fill
// entries follows the header inline — the pointer then addresses a leaf
// unit (unit.go), wide or narrow, which has ref, fill, narrow and aug where
// a Node has them and none of the other fields.  Exported so the
// transaction layer can name the type, but its fields are managed
// exclusively by this package.
type Node[K, V, A any] struct {
	// ref is a plain word: written plainly while the node is private (mk
	// before the node is published, freeNode after its last token died, and
	// Release's sole-owner fast path), through sync/atomic wherever another
	// goroutine can hold a token.  DESIGN.md ("Reference counts") has the
	// happens-before argument.
	ref    int32
	fill   uint16
	narrow bool
	_      uint8
	aug    A
	// The internal node's own fields.
	left  *Node[K, V, A]
	right *Node[K, V, A]
	size  int64
	key   K
	val   V
}

// freedMark poisons the refcount of freed nodes so that sharing or
// decomposing a node after its last release fails loudly in tests rather
// than corrupting the heap silently.
const freedMark = -1 << 24

// Aug returns the augmented value of the subtree rooted at n.
func (n *Node[K, V, A]) Aug() A { return n.aug }

// Expand visits the immediate parts of borrowed node n in key order: an
// internal node's left subtree, entry and right subtree, or every entry of
// a leaf.  It is how a caller searches by augmentation (the inverted
// index's top-k) without knowing the layout.
func (n *Node[K, V, A]) Expand(sub func(*Node[K, V, A]), entry func(K, V)) {
	if n.fill != 0 {
		eachIn(n, 0, int(n.fill), func(k K, v V) bool { entry(k, v); return true })
		return
	}
	if n.left != nil {
		sub(n.left)
	}
	entry(n.key, n.val)
	if n.right != nil {
		sub(n.right)
	}
}

// Size returns the number of keys in the subtree rooted at n (nil-safe).
func size[K, V, A any](n *Node[K, V, A]) int64 {
	if n == nil {
		return 0
	}
	if n.fill != 0 {
		return int64(n.fill)
	}
	return n.size
}

// weight is the BB[α] weight: size + 1, so empty trees weigh 1.
func weight[K, V, A any](n *Node[K, V, A]) int64 { return size(n) + 1 }

// stats is the unbound root's allocation accounting: cache-line padded
// atomic shards, indexed by node address, so that parallel operations do not
// serialize on a single counter.
const statShards = 64

type padCounter struct {
	v atomic.Int64
	_ [7]uint64
}

type stats struct {
	allocs [statShards]padCounter
	frees  [statShards]padCounter
}

// tally is one arena's allocation accounting: two plain words only the
// arena's owner writes, alone on their cache line.  A unit may be counted
// allocated in one tally and freed in another (or in the root's stats); only
// the sums over the family mean anything.
type tally struct {
	allocs, frees int64
	_             [6]uint64
}

// allocShared is the allocation state every view of one Ops family shares:
// the root's statistics, every arena's tally and the three depots (internal
// nodes, wide and narrow leaf units).  Arenas hold a pointer to the depots so spills and
// refills stay inside the family.  A tally is listed here for good: the
// units an arena allocated outlive an arena that is dropped.
type allocShared[K, V, A any] struct {
	st      stats
	mu      sync.Mutex // guards tallies
	tallies []*tally
	nodes   depot[Node[K, V, A]]
	leaves  depot[leaf[K, V, A]]
	narrow  depot[narrowLeaf[K, V, A]]
}

// newAllocShared returns a family's allocation state, each depot knowing
// its chunk: 256 internal nodes, and leaf units fitted to their size class.
func newAllocShared[K, V, A any]() *allocShared[K, V, A] {
	sh := &allocShared[K, V, A]{}
	sh.nodes.chunk = chunkNodes
	sh.leaves.chunk = leafChunk[leaf[K, V, A]]()
	sh.narrow.chunk = leafChunk[narrowLeaf[K, V, A]]()
	return sh
}

func shard(p unsafe.Pointer) int { return int((uintptr(p) >> 7) % statShards) }

func (s *stats) addAlloc(p unsafe.Pointer) { s.allocs[shard(p)].v.Add(1) }
func (s *stats) addFree(p unsafe.Pointer)  { s.frees[shard(p)].v.Add(1) }

// newTally lists a fresh tally for a new arena.
func (sh *allocShared[K, V, A]) newTally() *tally {
	t := new(tally)
	sh.mu.Lock()
	sh.tallies = append(sh.tallies, t)
	sh.mu.Unlock()
	return t
}

// totals sums the root's shards and every arena's tally.  The tallies are
// read plainly: see Allocs for when the sums are meaningful.
func (sh *allocShared[K, V, A]) totals() (allocs, frees int64) {
	for i := range sh.st.allocs {
		allocs += sh.st.allocs[i].v.Load()
		frees += sh.st.frees[i].v.Load()
	}
	sh.mu.Lock()
	for _, t := range sh.tallies {
		allocs += t.allocs
		frees += t.frees
	}
	sh.mu.Unlock()
	return
}

// Allocs reports the total number of allocation units (internal nodes and
// leaves) ever created by this Ops family.
//
// The accounting contract, for Allocs, Frees and Live alike: each is exact
// at any point ordered after (happens-after) the last operation of every
// arena-bound view — the same "owning process or quiescence" rule as
// Arena.Stats, and no call is needed to get there: a bound view's counts
// are in place the moment its operation returns.  None of the three is a
// snapshot under concurrent writers (sums over 64 counters read one after
// another never were), and reading them while a bound view is mid-operation
// on another goroutine is a data race.
func (o *Ops[K, V, A]) Allocs() int64 { a, _ := o.sh.totals(); return a }

// Frees reports the total number of units freed by the collector.
func (o *Ops[K, V, A]) Frees() int64 { _, f := o.sh.totals(); return f }

// Live reports the allocated space in units, Allocs() − Frees(): the
// "allocated space" of Section 2.  After all versions are released this
// must be zero; the property tests assert that at every quiescent point
// Live equals the number of nodes reachable from the live version roots.
// Units parked in magazines or in the depot are counted free: they are
// reachable from no version.
func (o *Ops[K, V, A]) Live() int64 {
	a, f := o.sh.totals()
	return a - f
}

// hasAug reports whether A carries information.  A zero-size A has one
// value, so every fold over it is that value and is skipped.
func hasAug[A any]() bool {
	var z A
	return unsafe.Sizeof(z) != 0
}

// newNode returns a private internal node with a count of 1 and counts the
// unit.  A bound view counts in its arena's tally and, with Recycle on,
// takes the node from the arena's magazine — plain loads and stores
// throughout; the unbound root counts in the sharded atomics and asks the
// depot, which carves a chunk when it is empty.
func (o *Ops[K, V, A]) newNode() *Node[K, V, A] {
	var n *Node[K, V, A]
	switch {
	case !o.Recycle:
		n = &Node[K, V, A]{}
	case o.arena != nil:
		n = o.arena.nodes.get()
	default:
		n = o.sh.nodes.pop()
	}
	n.ref = 1 // private until the caller publishes it
	o.countAlloc(n)
	return n
}

// countAlloc counts a new unit in the view's tally.
func (o *Ops[K, V, A]) countAlloc(n *Node[K, V, A]) {
	if a := o.arena; a != nil {
		a.tally.allocs++
	} else {
		o.sh.st.addAlloc(unsafe.Pointer(n))
	}
}

// mk makes a tree of children l and r around entry (k, v), consuming the
// caller's tokens on l and r and returning a token on the result: one leaf
// when everything fits in one, an internal node otherwise.  Size and
// augmentation are computed here so they are correct by construction
// everywhere.
func (o *Ops[K, V, A]) mk(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	if size(l)+size(r) < leafMax {
		return o.fold(l, k, v, r)
	}
	return o.mkInternal(l, k, v, r)
}

// mkInternal is mk where the caller knows the result is an internal node:
// l and r together hold at least leafMax entries.
func (o *Ops[K, V, A]) mkInternal(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	n := o.newNode()
	n.left, n.right, n.key, n.val = l, r, k, v
	n.size = size(l) + size(r) + 1
	if hasAug[A]() {
		a := o.Aug.Single(k, v)
		if l != nil {
			a = o.Aug.Combine(l.aug, a)
		}
		if r != nil {
			a = o.Aug.Combine(a, r.aug)
		}
		n.aug = a
	}
	return n
}

// Share mints an ownership token on a borrowed tree, turning it into an
// owned reference the caller must eventually Release.  Exposed so trees can
// be used as reference-counted values of other trees (via RetainVal) and so
// the transaction layer can pin snapshots.
func (o *Ops[K, V, A]) Share(t *Node[K, V, A]) *Node[K, V, A] { return o.share(t) }

// share mints an ownership token on a borrowed subtree (nil-safe).
func (o *Ops[K, V, A]) share(t *Node[K, V, A]) *Node[K, V, A] {
	if t == nil {
		return nil
	}
	if atomic.AddInt32(&t.ref, 1) <= 1 {
		panic("ftree: share of freed or unowned node")
	}
	return t
}

// sole reports whether the caller's token on t is the only reference.  No
// concurrent share can then target t — shares require reaching t through
// some other owned reference, and there is none — so the caller may take
// t apart without a locked instruction.
func sole[K, V, A any](t *Node[K, V, A]) bool { return atomic.LoadInt32(&t.ref) == 1 }

// steals reports whether an operation consuming the caller's token on t
// may take t apart in place — the steal fast path — instead of sharing its
// parts and releasing it.
func (o *Ops[K, V, A]) steals(t *Node[K, V, A]) bool { return !o.NoSteal && sole(t) }

// Release destroys one ownership token on t: Algorithm 5's collect.  When
// the token was the last reference the node is freed, the values it holds
// are released and its children are collected recursively (iteratively, to
// bound stack use).  Runs in O(freed+1) time (Theorem 4.2).
func (o *Ops[K, V, A]) Release(t *Node[K, V, A]) {
	if t == nil {
		return
	}
	// A bound view lends the traversal stack from its arena so steady-state
	// collection allocates nothing; taking it by swap keeps a reentrant
	// Release (via a ReleaseVal callback into the same Ops) correct — the
	// inner call just sees nil and falls back to a local stack.
	var stack []*Node[K, V, A]
	a := o.arena
	if a != nil {
		stack, a.scratch = a.scratch[:0], nil
	}
	cur := t
	for {
		// A count of 1 is the caller's own token (see sole), so the node
		// dies without a locked decrement.  A freed node's count is
		// freedMark, not 1, so a double collect still reaches the decrement
		// and trips the panic.
		dead := sole(cur)
		if !dead {
			n := atomic.AddInt32(&cur.ref, -1)
			if n < 0 {
				panic("ftree: release of freed node (double collect)")
			}
			dead = n == 0
		}
		if dead && cur.fill != 0 {
			if o.ReleaseVal != nil {
				eachIn(cur, 0, int(cur.fill), func(_ K, v V) bool { o.ReleaseVal(v); return true })
			}
			o.freeNode(cur)
		} else if dead {
			l, r := cur.left, cur.right
			o.releaseVal(cur.val)
			o.freeNode(cur)
			if l != nil {
				if r != nil {
					stack = append(stack, r)
				}
				cur = l
				continue
			}
			if r != nil {
				cur = r
				continue
			}
		}
		if len(stack) == 0 {
			if a != nil {
				a.scratch = stack
			}
			return
		}
		cur = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
	}
}

// freeNode frees a unit whose last token just died: one put into the
// magazine or depot of its kind.  The caller has released, or moved
// elsewhere, every value the unit held.
func (o *Ops[K, V, A]) freeNode(n *Node[K, V, A]) {
	n.ref = freedMark // unreachable: nobody else can read the word
	a := o.arena
	if a != nil {
		a.tally.frees++
	} else {
		o.sh.st.addFree(unsafe.Pointer(n))
	}
	// The unit is unreachable from any live version, so no reader can
	// observe it; drop its references so parked memory pins nothing.  A run
	// of entries that cannot hold a pointer pins nothing as it is.
	if n.fill != 0 {
		if !o.Recycle {
			return
		}
		if n.narrow {
			u := n.narrowUnit()
			if !o.plainLeaves {
				clear(u.v[:u.fill])
			}
			if a != nil {
				a.narrow.put(u)
			} else {
				o.sh.narrow.put(u)
			}
			return
		}
		u := n.unit()
		if !o.plainLeaves {
			clear(u.e[:u.fill])
		}
		if a != nil {
			a.leaves.put(u)
		} else {
			o.sh.leaves.put(u)
		}
		return
	}
	n.left, n.right = nil, nil
	if !o.Recycle {
		return
	}
	var zeroK K
	var zeroV V
	n.key, n.val = zeroK, zeroV
	if a != nil {
		a.nodes.put(n)
	} else {
		o.sh.nodes.put(n)
	}
}

// decompose trades the caller's token on t for t's payload plus tokens on
// both children; a leaf unfolds at its middle entry.  With the steal fast
// path (the default), a node whose token is the only reference is freed
// immediately and its child edges are handed to the caller without
// touching the children's counts; otherwise the children are shared first
// and the node released, which is always correct but costs two extra
// atomic operations.  DESIGN.md lists this choice as an ablation
// (BenchmarkAblationSteal).
func (o *Ops[K, V, A]) decompose(t *Node[K, V, A]) (k K, v V, l, r *Node[K, V, A]) {
	if t.fill != 0 {
		mid := int(t.fill / 2)
		l, r, e := o.carve(t, mid, mid+1)
		return e.Key, e.Val, l, r
	}
	k, v, l, r = t.key, t.val, t.left, t.right
	if o.steals(t) {
		// Transfer the child edges and the value reference to the caller.
		o.freeNode(t)
		return
	}
	v = o.retainVal(v) // the node lives on with its own value reference
	o.share(l)
	o.share(r)
	o.Release(t)
	return
}

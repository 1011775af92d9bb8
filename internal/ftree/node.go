// Package ftree implements the purely functional (persistent)
// weight-balanced trees the paper builds its transactions on (Sections 2,
// 5.3 and 7), equivalent to the PAM library used in the paper's
// experiments: path-copying updates, join-based set operations (union,
// intersection, difference, multi-insert) with parallel divide-and-conquer,
// user-defined augmentation, and precise reference-counting garbage
// collection following Algorithm 5.
//
// # Ownership discipline
//
// Every node carries a reference count equal to the number of parent
// pointers in the memory graph plus the number of outstanding ownership
// tokens (a version root held by the transaction layer, or an intermediate
// result held by an operation in progress).  All code manipulates nodes
// through four primitives, which make reference-count exactness
// compositional:
//
//   - mk(l, k, v, r) creates a node, consuming the caller's tokens on l
//     and r (they become parent edges) and minting a token on the new node.
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
// With Recycle on, freed nodes are reused by the next mk.  An Ops view
// bound to an Arena (the per-pid magazine allocator, arena.go) recycles
// through the arena with no locks or shared-state atomics; the unbound
// root Ops recycles through sharded mutex-protected global lists, which
// double as the depot magazines spill to and refill from.
package ftree

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Node is an immutable tree node.  Exported so the transaction layer can
// name the type, but its fields are managed exclusively by this package.
type Node[K, V, A any] struct {
	// ref is a plain word: written plainly while the node is private (mk
	// before the node is published, freeNode after its last token died, and
	// Release's sole-owner fast path), through sync/atomic wherever another
	// goroutine can hold a token.  DESIGN.md ("Reference counts") has the
	// happens-before argument.
	ref   int32
	left  *Node[K, V, A]
	right *Node[K, V, A]
	size  int64
	key   K
	val   V
	aug   A
}

// freedMark poisons the refcount of freed nodes so that sharing or
// decomposing a node after its last release fails loudly in tests rather
// than corrupting the heap silently.
const freedMark = -1 << 24

// Key returns the node's key; used by iterators.
func (n *Node[K, V, A]) Key() K { return n.key }

// Val returns the node's value (borrowed: valid while the tree is live).
func (n *Node[K, V, A]) Val() V { return n.val }

// Aug returns the augmented value of the subtree rooted at n.
func (n *Node[K, V, A]) Aug() A { return n.aug }

// Left returns the left child for read-only traversals (borrowed).
func (n *Node[K, V, A]) Left() *Node[K, V, A] { return n.left }

// Right returns the right child for read-only traversals (borrowed).
func (n *Node[K, V, A]) Right() *Node[K, V, A] { return n.right }

// Size returns the number of keys in the subtree rooted at n (nil-safe).
func size[K, V, A any](n *Node[K, V, A]) int64 {
	if n == nil {
		return 0
	}
	return n.size
}

// weight is the BB[α] weight: size + 1, so empty trees weigh 1.
func weight[K, V, A any](n *Node[K, V, A]) int64 { return size(n) + 1 }

// stats tracks allocation accounting with cache-line padded shards, indexed
// by node address, so that parallel operations do not serialize on a single
// counter.  live = allocs − frees is the "allocated space" of Section 2.
const statShards = 64

type padCounter struct {
	v atomic.Int64
	_ [7]uint64
}

type stats struct {
	allocs [statShards]padCounter
	frees  [statShards]padCounter
}

// freeShards is the number of independent global free lists when Recycle
// is on; sharding keeps unbound collectors and allocators from serializing
// on one lock, and gives arenas independent depots to spill to.
const freeShards = 16

type freeList[K, V, A any] struct {
	mu   sync.Mutex
	head *Node[K, V, A]
	_    [4]uint64
}

// allocShared is the allocation state every view of one Ops family shares:
// exact statistics plus the sharded global free lists.  Arenas hold a
// pointer to it so spills and refills stay inside the family and Live()
// accounting cannot drift between views.
type allocShared[K, V, A any] struct {
	st       stats
	free     [freeShards]freeList[K, V, A]
	freeHint atomic.Uint32
}

func shard(p unsafe.Pointer) int { return int((uintptr(p) >> 7) % statShards) }

func (s *stats) addAlloc(p unsafe.Pointer) { s.allocs[shard(p)].v.Add(1) }
func (s *stats) addFree(p unsafe.Pointer)  { s.frees[shard(p)].v.Add(1) }

func (s *stats) totals() (allocs, frees int64) {
	for i := range s.allocs {
		allocs += s.allocs[i].v.Load()
		frees += s.frees[i].v.Load()
	}
	return
}

// Allocs reports the total number of nodes ever created by this Ops family.
func (o *Ops[K, V, A]) Allocs() int64 { a, _ := o.sh.st.totals(); return a }

// Frees reports the total number of nodes freed by the collector.
func (o *Ops[K, V, A]) Frees() int64 { _, f := o.sh.st.totals(); return f }

// Live reports the allocated space in nodes: Allocs() − Frees().  After all
// versions are released this must be zero; the property tests assert that
// at every quiescent point Live equals the number of nodes reachable from
// the live version roots.  Nodes parked in magazines or on the global free
// lists are counted free: they are reachable from no version.
func (o *Ops[K, V, A]) Live() int64 {
	a, f := o.sh.st.totals()
	return a - f
}

// mk allocates a node with key k, value v and children l and r, consuming
// the caller's tokens on l and r and returning a token on the new node.
// Size and augmentation are computed here so they are correct by
// construction everywhere.  With Recycle on, a bound view takes the node
// from its arena (no locks, no shared-state atomics); the unbound root
// scans the sharded global lists.
func (o *Ops[K, V, A]) mk(l *Node[K, V, A], k K, v V, r *Node[K, V, A]) *Node[K, V, A] {
	var n *Node[K, V, A]
	if o.Recycle {
		if a := o.arena; a != nil {
			n = a.get()
		} else {
			n = o.popFree()
		}
	}
	if n == nil {
		n = &Node[K, V, A]{}
	}
	n.left, n.right, n.key, n.val = l, r, k, v
	n.ref = 1 // private until the caller publishes it
	n.size = size(l) + size(r) + 1
	a := o.Aug.Single(k, v)
	if l != nil {
		a = o.Aug.Combine(l.aug, a)
	}
	if r != nil {
		a = o.Aug.Combine(a, r.aug)
	}
	n.aug = a
	o.sh.st.addAlloc(unsafe.Pointer(n))
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

// Release destroys one ownership token on t: Algorithm 5's collect.  When
// the token was the last reference the node is freed and its children are
// collected recursively (iteratively, to bound stack use).  Runs in
// O(freed+1) time (Theorem 4.2).
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
	defer func() {
		if a != nil {
			a.scratch = stack[:0]
		}
	}()
	cur := t
	for {
		// A count of 1 is the caller's own token and nobody else can mint
		// another (decompose's steal argument), so the node dies without a
		// locked decrement.  A freed node's count is freedMark, not 1, so a
		// double collect still reaches the decrement and trips the panic.
		dead := atomic.LoadInt32(&cur.ref) == 1
		if !dead {
			n := atomic.AddInt32(&cur.ref, -1)
			if n < 0 {
				panic("ftree: release of freed node (double collect)")
			}
			dead = n == 0
		}
		if dead {
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
			return
		}
		cur = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
	}
}

func (o *Ops[K, V, A]) freeNode(n *Node[K, V, A]) {
	n.ref = freedMark // unreachable: the last token just died
	o.sh.st.addFree(unsafe.Pointer(n))
	if !o.Recycle {
		n.left, n.right = nil, nil
		return
	}
	// The node is unreachable from any live version, so no reader can
	// observe it; drop its references so parked nodes pin nothing.
	var zeroK K
	var zeroV V
	n.left, n.right, n.key, n.val = nil, nil, zeroK, zeroV
	if a := o.arena; a != nil {
		a.put(n)
		return
	}
	fl := &o.sh.free[(uintptr(unsafe.Pointer(n))>>7)%freeShards]
	fl.mu.Lock()
	n.right = fl.head
	fl.head = n
	fl.mu.Unlock()
}

// popFree takes a recycled node off the global lists, scanning a couple of
// shards so one empty shard does not force an allocation while others are
// full.  Only the unbound root allocates this way; bound views go through
// their arena.
func (o *Ops[K, V, A]) popFree() *Node[K, V, A] {
	start := int(o.sh.freeHint.Add(1))
	for i := 0; i < 2; i++ {
		fl := &o.sh.free[(start+i)%freeShards]
		fl.mu.Lock()
		n := fl.head
		if n != nil {
			fl.head = n.right
			fl.mu.Unlock()
			n.right = nil
			return n
		}
		fl.mu.Unlock()
	}
	return nil
}

// decompose trades the caller's token on t for t's payload plus tokens on
// both children.  With the steal fast path (the default), a node whose
// token is the only reference is freed immediately and its child edges are
// handed to the caller without touching the children's counts; otherwise
// the children are shared first and the node released, which is always
// correct but costs two extra atomic operations.  DESIGN.md lists this
// choice as an ablation (BenchmarkAblationSteal).
func (o *Ops[K, V, A]) decompose(t *Node[K, V, A]) (k K, v V, l, r *Node[K, V, A]) {
	k, v, l, r = t.key, t.val, t.left, t.right
	if !o.NoSteal && atomic.LoadInt32(&t.ref) == 1 {
		// We hold the only token, so no concurrent share can target t:
		// shares require reaching t through some other owned reference,
		// and there is none.  Transfer the child edges and the value
		// reference to the caller.
		o.freeNode(t)
		return
	}
	v = o.retainVal(v) // the node lives on with its own value reference
	o.share(l)
	o.share(r)
	o.Release(t)
	return
}

package ftree

// Arena is a pid-local node magazine: a private allocation cache that lets
// one process (in the paper's sense — one leased pid, never used
// concurrently) allocate and free tree nodes with no locks and no
// shared-state atomics.  The transaction layer gives every pid its own
// arena and runs that pid's transactions on an Ops view Bound to it, so
// the path-copying write path touches only single-owner memory:
//
//   - get/put hit the magazine, a plain LIFO of freed nodes.
//   - A magazine that fills up spills a block of magMove nodes to one
//     sharded global list under a single lock, so memory migrates between
//     pids at O(1/M) locks per node instead of one lock per node.
//   - An empty magazine refills the same way: a block of magMove nodes off
//     one global list, one lock.
//   - When the global lists are empty too (cold start, growing tree), the
//     arena carves nodes sequentially out of chunk-allocated []Node blocks,
//     so nodes born together — which path copying tends to link together —
//     share cache lines.
//
// Accounting is unchanged by any of this: mk and freeNode count through the
// family's exact sharded counters whether a node moves through an arena, a
// global list or the Go heap, so Live() == Allocs() − Frees() holds at
// every instant and equals the reachable-node count at quiescent points.
// DESIGN.md ("Pid-local node magazines") explains why the cache is per-pid
// rather than a per-P sync.Pool.
//
// An Arena is deliberately not goroutine-safe: exclusivity comes from pid
// leasing, exactly like the Version Maintenance contract.  Parallel bulk
// operations fork onto the unbound root Ops (see maybeParallel), so a
// bound arena is only ever touched by the goroutine running its pid.
type Arena[K, V, A any] struct {
	sh *allocShared[K, V, A]

	// mag is the magazine: parked freed nodes, most recently freed first
	// (LIFO keeps reuse cache-warm).  Its capacity is the spill threshold;
	// Reserve may grow it for one transaction's worth of nodes — Trim
	// sheds them again — and the slice keeps its high-water capacity so
	// steady state allocates nothing.
	mag []*Node[K, V, A]

	// blk is the current locality chunk; blk[bi:] are raw never-allocated
	// nodes handed out sequentially when the magazine and global lists are
	// both empty.
	blk []Node[K, V, A]
	bi  int

	// scratch is the collector's reusable traversal stack (see
	// Ops.Release); parked here because the arena is exactly the
	// single-owner state a bound view may scribble on.
	scratch []*Node[K, V, A]

	// Counters for tests and tuning; single-owner like the rest.
	refills int64 // block transfers in from the global lists
	spills  int64 // block transfers out to the global lists
	carves  int64 // fresh chunks allocated from the Go heap
}

const (
	// magCap is the magazine's initial capacity and default spill
	// threshold M·2: a put into a full magazine moves magMove nodes out,
	// a get from an empty one moves up to magMove nodes in, so a process
	// ping-ponging around the threshold still amortizes one lock per
	// magMove node operations.
	magCap = 256
	// magMove is M, the block size of spills and refills.
	magMove = magCap / 2
	// chunkNodes is how many nodes a fresh locality chunk carves.
	chunkNodes = 256
)

// NewArena returns an empty arena belonging to o's Ops family.  Bind it
// with Ops.Bound; the caller must guarantee the arena (and every view
// bound to it) is used by one goroutine at a time.
func (o *Ops[K, V, A]) NewArena() *Arena[K, V, A] {
	return &Arena[K, V, A]{sh: o.sh, mag: make([]*Node[K, V, A], 0, magCap)}
}

// get returns a node for mk: magazine first, then the current chunk, then
// a block refill from the global lists, then a fresh chunk.
func (a *Arena[K, V, A]) get() *Node[K, V, A] {
	if n := len(a.mag); n > 0 {
		nd := a.mag[n-1]
		a.mag[n-1] = nil
		a.mag = a.mag[:n-1]
		return nd
	}
	if a.bi < len(a.blk) {
		nd := &a.blk[a.bi]
		a.bi++
		return nd
	}
	if a.refill(magMove) {
		n := len(a.mag)
		nd := a.mag[n-1]
		a.mag[n-1] = nil
		a.mag = a.mag[:n-1]
		return nd
	}
	a.blk = make([]Node[K, V, A], chunkNodes)
	a.bi = 1
	a.carves++
	return &a.blk[0]
}

// put parks a freed node in the magazine, spilling a block to the global
// lists when the magazine is at capacity.
func (a *Arena[K, V, A]) put(n *Node[K, V, A]) {
	if len(a.mag) == cap(a.mag) {
		a.spill(magMove)
	}
	a.mag = append(a.mag, n)
}

// spill moves the top k parked nodes onto one global free list under a
// single lock.  Taking the top keeps the operation O(k) however large the
// magazine has grown (a Reserve-widened magazine never pays O(cap) here).
func (a *Arena[K, V, A]) spill(k int) {
	if k > len(a.mag) {
		k = len(a.mag)
	}
	if k == 0 {
		return
	}
	// Chain the block through the nodes' right pointers, as the global
	// lists store them.
	top := a.mag[len(a.mag)-k:]
	head := top[0]
	tail := head
	for _, nd := range top[1:] {
		tail.right = nd
		tail = nd
	}
	for i := range top {
		top[i] = nil
	}
	a.mag = a.mag[:len(a.mag)-k]
	fl := &a.sh.free[a.sh.freeHint.Add(1)%freeShards]
	fl.mu.Lock()
	tail.right = fl.head
	fl.head = head
	fl.mu.Unlock()
	a.spills++
}

// refill pulls up to k nodes off the global lists into the magazine.  It
// sweeps every shard before giving up: a refill only happens when the
// magazine and chunk are both empty, where the alternative is carving a
// fresh chunk from the heap — 16 uncontended mutexes are far cheaper than
// letting spilled memory strand while the heap grows.  Reports whether it
// got at least one node.
func (a *Arena[K, V, A]) refill(k int) bool {
	got := 0
	start := int(a.sh.freeHint.Add(1))
	for i := 0; i < freeShards && got < k; i++ {
		fl := &a.sh.free[(start+i)%freeShards]
		fl.mu.Lock()
		for got < k && fl.head != nil {
			nd := fl.head
			fl.head = nd.right
			nd.right = nil
			a.mag = append(a.mag, nd)
			got++
		}
		fl.mu.Unlock()
	}
	if got > 0 {
		a.refills++
	}
	return got > 0
}

// Reserve pre-fills the arena so the next n allocations are magazine or
// chunk hits: it sweeps the global lists in blocks, then carves whatever
// is still missing as one contiguous chunk.  An n-entry batch build after
// Reserve(n) touches the shared lists O(n/M) times instead of O(n).
// Growing the magazine raises its spill threshold, so the nodes the batch
// frees while it runs stay local too; the owner calls Trim when the
// transaction is over.
func (a *Arena[K, V, A]) Reserve(n int) {
	have := a.Cached()
	if have >= n {
		return
	}
	if cap(a.mag) < n {
		mag := make([]*Node[K, V, A], len(a.mag), n)
		copy(mag, a.mag)
		a.mag = mag
	}
	for i := 0; i < freeShards && have < n; i++ {
		before := len(a.mag)
		if !a.refill(n - have) {
			break
		}
		have += len(a.mag) - before
	}
	if have < n {
		// Park the current chunk's remainder in the magazine so carving a
		// fresh chunk strands nothing, then carve the whole shortfall in
		// one contiguous block.
		for a.bi < len(a.blk) {
			a.mag = append(a.mag, &a.blk[a.bi])
			a.bi++
		}
		need := n - have
		if need < chunkNodes {
			need = chunkNodes
		}
		a.blk = make([]Node[K, V, A], need)
		a.bi = 0
		a.carves++
	}
}

// Trim spills what the magazine holds beyond its default capacity, in
// blocks.  A pid parks a bounded number of nodes between transactions
// however large a batch it last ran: the surplus waits on the global
// lists, where the next batch finds it whichever pid runs it.
func (a *Arena[K, V, A]) Trim() {
	for len(a.mag) > magCap {
		a.spill(magMove)
	}
}

// Flush spills every parked node back to the global free lists, in blocks.
// The transaction layer calls it when an arena's owner goes away for good
// (Map.Close), so parked memory is never stranded with a dead pid.  The
// current chunk's unallocated remainder is dropped: those nodes were never
// allocated, so no accounting moves.
func (a *Arena[K, V, A]) Flush() {
	for len(a.mag) > 0 {
		a.spill(magMove)
	}
	a.blk, a.bi = nil, 0
}

// Cached reports how many allocations the arena can serve without touching
// the global lists: parked magazine nodes plus the current chunk's
// remainder.  Like all arena state it is single-owner — read it only from
// the owning process or at quiescence.
func (a *Arena[K, V, A]) Cached() int {
	return len(a.mag) + len(a.blk) - a.bi
}

// Stats reports the arena's lifetime block-transfer counters: refills and
// spills against the global lists, and fresh chunks carved from the heap.
// Single-owner; read from the owning process or at quiescence.
func (a *Arena[K, V, A]) Stats() (refills, spills, carves int64) {
	return a.refills, a.spills, a.carves
}

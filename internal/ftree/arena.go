package ftree

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Arena is a pid-local allocation cache: three magazines — one of internal
// nodes, one each of wide and narrow leaf units — and a tally of the units
// allocated and freed through them, which let one process (in the paper's
// sense — one leased pid, never used concurrently) allocate, free and count
// tree memory with no lock and no locked instruction.  The transaction
// layer gives every pid its own arena and runs that pid's transactions on
// an Ops view Bound to it, so allocation on the path-copying write path
// touches only single-owner memory; the locked instructions left on that
// path are the reference counts' (share, and Release of a node someone else
// still holds).  The magazines follow the same rules:
//
//   - get/put hit the magazine, a plain LIFO of freed objects.
//   - A magazine that fills up spills a block of half its capacity, M
//     objects, to one shard of the family's depot under a single lock, so
//     memory migrates between pids at O(1/M) locks per object instead of
//     one lock each.
//   - An empty magazine refills the same way: a block of M objects off the
//     depot, one lock.
//   - When the depot is empty too (cold start, growing tree), the magazine
//     carves objects sequentially out of a chunk-allocated slice, so
//     objects born together — which path copying tends to link together —
//     share cache lines.  A magazine carves its first chunk on its first
//     get, so an arena whose trees never hold a leaf of one layout holds no
//     chunk of it.  The unbound root carves the same chunks when the depot
//     runs dry, parking all but the object it takes.
//
// Free objects are linked only through the magazine and depot slices,
// never through fields of their own, which keeps a leaf unit pointer-free
// for pointer-free keys, values and augmentation.
//
// Accounting follows the memory's owner, not the memory: newNode, newLeaf
// and freeNode count allocation units (an internal node or a whole leaf)
// in the arena's tally — plain adds on a cache line nobody else writes —
// when the view is bound, in the family's sharded atomics when it is not,
// wherever the unit itself came from or goes to.  The family lists every
// tally, so Allocs, Frees and Live are sums over both kinds; Ops.Allocs
// states when those sums are exact.  DESIGN.md ("Pid-local node magazines")
// explains why the cache is per-pid rather than a per-P sync.Pool.
//
// An Arena is deliberately not goroutine-safe: exclusivity comes from pid
// leasing, exactly like the Version Maintenance contract.  Parallel bulk
// operations fork onto the unbound root Ops (see maybeParallel and
// insertBoth), so a bound arena is only ever touched by the goroutine
// running its pid.
type Arena[K, V, A any] struct {
	nodes  magazine[Node[K, V, A]]
	leaves magazine[leaf[K, V, A]]
	narrow magazine[narrowLeaf[K, V, A]]

	// tally counts the units allocated and freed through views bound to
	// this arena.  The family's allocShared lists it too, so the counts
	// survive an arena that is dropped without a Flush.
	tally *tally

	// scratch is the collector's reusable traversal stack (see
	// Ops.Release), path the point write's step record (see Ops.descend)
	// and sorted the buffer a batch is merge-sorted through (see
	// Ops.SortEntries); parked here because the arena is exactly the
	// single-owner state a bound view may scribble on.
	scratch []*Node[K, V, A]
	path    []step[K, V, A]
	sorted  []Entry[K, V]
}

const (
	// magCap is the internal-node magazine's capacity, its spill threshold
	// 2M: a put into a full magazine moves M objects out, a get from an
	// empty one moves up to M objects in, so a process ping-ponging around
	// the threshold still amortizes one lock per M operations.
	magCap = 256
	// chunkNodes is how many internal nodes a fresh locality chunk carves:
	// 12 KiB of 48-byte nodes, an exact Go size class.
	chunkNodes = 256
	// magLeafBytes and chunkLeafBytes size each leaf magazine and its
	// chunks in bytes, whatever the unit's size (unitsIn): 128 KiB and
	// 32 KiB — 128 and 32 wide units of int64 pairs, 199 and 49 narrow
	// ones.  A larger unit then parks no more memory per pid than a smaller
	// one did.
	magLeafBytes   = 128 << 10
	chunkLeafBytes = 32 << 10
	// depotShards is the number of independent depot lists; sharding keeps
	// unbound collectors and allocators from serializing on one lock, and
	// gives arenas independent places to spill to.
	depotShards = 16
)

// depot is the shared side of the allocator: sharded mutex-protected
// stacks of free objects.  Magazines move blocks in and out; the unbound
// root Ops pushes and pops single objects.
type depot[T any] struct {
	shards [depotShards]struct {
		mu    sync.Mutex
		items []*T
		_     [4]uint64
	}
	hint atomic.Uint32
	// size is the number of objects in all shards.  It lets a taker sweep
	// every shard while anything is parked and skip the sweep when nothing
	// is: an object the depot holds is never passed over for a fresh heap
	// allocation, which would grow the pool by one for good.
	size atomic.Int64
}

// put parks xs on one shard under a single lock.
func (d *depot[T]) put(xs ...*T) {
	s := &d.shards[d.hint.Add(1)%depotShards]
	s.mu.Lock()
	s.items = append(s.items, xs...)
	s.mu.Unlock()
	d.size.Add(int64(len(xs)))
}

// take moves up to k parked objects onto dst, sweeping shards from a
// rotating start, and returns dst.
func (d *depot[T]) take(dst []*T, k int) []*T {
	if d.size.Load() == 0 {
		return dst
	}
	had := len(dst)
	start := d.hint.Add(1)
	for i := uint32(0); i < depotShards && k > 0; i++ {
		s := &d.shards[(start+i)%depotShards]
		s.mu.Lock()
		n := min(k, len(s.items))
		rest := len(s.items) - n
		dst = append(dst, s.items[rest:]...)
		clear(s.items[rest:])
		s.items = s.items[:rest]
		s.mu.Unlock()
		k -= n
	}
	d.size.Add(int64(had - len(dst)))
	return dst
}

// pop takes one object for the unbound root Ops.  When the depot is empty
// it carves a chunk of the given count from the heap, as a magazine does,
// keeps the first object and parks the rest on one shard: the units the
// unbound root allocates — a bulk load's, a parallel fork's — share chunks
// instead of each taking a heap object of its own size class.
func (d *depot[T]) pop(chunk int) *T {
	var one [1]*T
	if len(d.take(one[:0], 1)) == 1 {
		return one[0]
	}
	blk := make([]T, chunk)
	s := &d.shards[d.hint.Add(1)%depotShards]
	s.mu.Lock()
	for i := 1; i < chunk; i++ {
		s.items = append(s.items, &blk[i])
	}
	s.mu.Unlock()
	d.size.Add(int64(chunk - 1))
	return &blk[0]
}

// magazine is one object type's pid-local cache.
type magazine[T any] struct {
	d *depot[T]

	// mag holds parked free objects, most recently freed last (LIFO keeps
	// reuse cache-warm).  Its capacity, 2M, is the spill threshold; cap/2 is
	// M, the block size of spills and refills.
	mag []*T

	// blk is the current locality chunk; blk[bi:] are raw never-allocated
	// objects handed out sequentially when the magazine and the depot are
	// both empty.  chunk is how many a fresh one holds.
	blk   []T
	bi    int
	chunk int

	// Counters for tests and tuning; single-owner like the rest.
	refills int64 // block transfers in from the depot
	spills  int64 // block transfers out to the depot
	carves  int64 // fresh chunks allocated from the Go heap
}

// NewArena returns an empty arena belonging to o's Ops family.  Bind it
// with Ops.Bound; the caller must guarantee the arena (and every view
// bound to it) is used by one goroutine at a time.
func (o *Ops[K, V, A]) NewArena() *Arena[K, V, A] {
	return &Arena[K, V, A]{
		tally:  o.sh.newTally(),
		nodes:  magazine[Node[K, V, A]]{d: &o.sh.nodes, mag: make([]*Node[K, V, A], 0, magCap), chunk: chunkNodes},
		leaves: leafMagazine(&o.sh.leaves),
		narrow: leafMagazine(&o.sh.narrow),
	}
}

// leafMagazine is an empty magazine of leaf units of type T, sized in bytes.
func leafMagazine[T any](d *depot[T]) magazine[T] {
	return magazine[T]{d: d, mag: make([]*T, 0, unitsIn[T](magLeafBytes)), chunk: leafChunk[T]()}
}

// leafChunk is how many leaf units of type T a fresh chunk carves.
func leafChunk[T any]() int { return unitsIn[T](chunkLeafBytes) }

// unitsIn is how many units of type T fit in the given bytes, and at least
// two, so that a magazine moves at least one unit a block.
func unitsIn[T any](bytes uintptr) int {
	var u T
	return max(2, int(bytes/unsafe.Sizeof(u)))
}

// get returns a free object: magazine first, then the current chunk, then
// a block refill from the depot, then a fresh chunk.
func (m *magazine[T]) get() *T {
	if len(m.mag) == 0 {
		if m.bi == len(m.blk) && !m.refill(cap(m.mag)/2) {
			m.blk, m.bi = make([]T, m.chunk), 0
			m.carves++
		}
		if m.bi < len(m.blk) {
			m.bi++
			return &m.blk[m.bi-1]
		}
	}
	n := len(m.mag) - 1
	x := m.mag[n]
	m.mag[n] = nil
	m.mag = m.mag[:n]
	return x
}

// put parks a freed object in the magazine, spilling a block to the depot
// when the magazine is at capacity.
func (m *magazine[T]) put(x *T) {
	if len(m.mag) == cap(m.mag) {
		m.spill(cap(m.mag) / 2)
	}
	m.mag = append(m.mag, x)
}

// spill moves the top k parked objects onto one depot shard under a single
// lock.
func (m *magazine[T]) spill(k int) {
	k = min(k, len(m.mag))
	if k == 0 {
		return
	}
	top := m.mag[len(m.mag)-k:]
	m.d.put(top...)
	clear(top)
	m.mag = m.mag[:len(m.mag)-k]
	m.spills++
}

// refill pulls up to k objects off the depot into the magazine.  The depot
// is swept whole before giving up: a refill only happens when the magazine
// and chunk are both empty, where the alternative is carving a fresh chunk
// from the heap — 16 uncontended mutexes are far cheaper than letting
// spilled memory strand while the heap grows.  Reports whether it got at
// least one object.
func (m *magazine[T]) refill(k int) bool {
	before := len(m.mag)
	m.mag = m.d.take(m.mag, k)
	if len(m.mag) == before {
		return false
	}
	m.refills++
	return true
}

// flush spills every parked object back to the depot, in blocks, and drops
// the current chunk's unallocated remainder: those objects were never
// allocated, so no accounting moves.
func (m *magazine[T]) flush() {
	for len(m.mag) > 0 {
		m.spill(cap(m.mag) / 2)
	}
	m.blk, m.bi = nil, 0
}

// cached is how many gets the magazine can serve without touching the
// depot: parked objects plus the current chunk's remainder.
func (m *magazine[T]) cached() int { return len(m.mag) + len(m.blk) - m.bi }

// Flush spills everything parked back to the depot.  The transaction layer
// calls it when an arena's owner goes away for good (Map.Close), so parked
// memory is never stranded with a dead pid.
func (a *Arena[K, V, A]) Flush() {
	a.nodes.flush()
	a.leaves.flush()
	a.narrow.flush()
}

// Cached reports how many units, of all kinds together, the arena can hand
// out without touching the depot.  Like all arena state it is single-owner —
// read it only from the owning process or at quiescence.
func (a *Arena[K, V, A]) Cached() int {
	return a.nodes.cached() + a.leaves.cached() + a.narrow.cached()
}

// Stats reports the arena's lifetime block-transfer counters, all
// magazines together: refills and spills against the depot, and fresh
// chunks carved from the heap.  Single-owner; read from the owning process
// or at quiescence — the rule the family's Allocs, Frees and Live follow
// for every arena at once (see Ops.Allocs).
func (a *Arena[K, V, A]) Stats() (refills, spills, carves int64) {
	n, l, w := &a.nodes, &a.leaves, &a.narrow
	return n.refills + l.refills + w.refills, n.spills + l.spills + w.spills, n.carves + l.carves + w.carves
}

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
//     share cache lines.  A leaf chunk fills its Go size class (chunkUnits).
//     A magazine carves its first chunk on its first get, so an arena whose
//     trees never hold a leaf of one layout holds no chunk of it.  The
//     unbound root carves the same chunks when the depot runs dry, parking
//     all but the object it takes.
//
// Free objects are linked only through the magazine slice and the depot's
// blocks, never through fields of their own, which keeps a leaf unit
// pointer-free for pointer-free keys, values and augmentation.
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
	// magLeafBytes sizes each leaf magazine in bytes, whatever the unit's
	// size (unitsIn): 64 KiB, 64 wide units of int64 pairs or 99 narrow
	// ones.  A larger unit then parks no more memory per pid than a smaller
	// one did.  chunkLeafBytes caps a leaf chunk, which chunkUnits fits to
	// its size class below it.
	magLeafBytes   = 64 << 10
	chunkLeafBytes = 32 << 10
	// depotShards is the number of independent depot lists; sharding keeps
	// unbound collectors and allocators from serializing on one lock, and
	// gives arenas independent places to spill to.  It is also how many
	// empty blocks a depot keeps.
	depotShards = 16
	// blockSlots is how many parked objects a depot block holds: with its
	// link and count a block is 1 KiB, an exact size class.
	blockSlots = 126
)

// depot is the shared side of the allocator: sharded mutex-protected
// stacks of free objects.  Magazines move blocks in and out; the unbound
// root Ops pushes and pops single objects.
//
// A shard parks its objects in blocks of blockSlots, a stack of which
// only the top may be partly empty, so its slot storage follows what it
// parks: a block that empties goes to the depot's spares, which keep at
// most depotShards of them for the next put and let the heap have the
// rest.  A burst of parked objects leaves no slots behind it.
type depot[T any] struct {
	shards [depotShards]depotShard[T]
	hint   atomic.Uint32
	// size is the number of objects in all shards.  It lets a taker sweep
	// every shard while anything is parked and skip the sweep when nothing
	// is: an object the depot holds is never passed over for a fresh heap
	// allocation, which would grow the pool by one for good.
	size atomic.Int64
	// carved is the bytes of every chunk of T carved from the Go heap,
	// by magazines and by pop, as the heap rounds them (classBytes).
	carved atomic.Int64
	// chunk is how many objects a fresh chunk of T holds (leafChunk).
	chunk int

	spareMu sync.Mutex
	spare   *block[T] // empty blocks, linked through next
	spares  int
}

// depotShard is one of a depot's stacks.
type depotShard[T any] struct {
	mu  sync.Mutex
	top *block[T] // nil, or the top block, holding at least one object
	_   [6]uint64
}

// block is a depot's slot storage: up to blockSlots parked objects, in a
// shard's stack of blocks or, empty, among the spares.
type block[T any] struct {
	next *block[T]
	n    int
	slot [blockSlots]*T
}

// room returns s's top block with room for one more object, pushing a
// spare on top when the top is full or absent.  The caller holds s.mu.
func (s *depotShard[T]) room(d *depot[T]) *block[T] {
	if s.top == nil || s.top.n == blockSlots {
		b := d.emptyBlock()
		b.next, s.top = s.top, b
	}
	return s.top
}

// emptyBlock returns a spare block if there is one, else a new one.
func (d *depot[T]) emptyBlock() *block[T] {
	d.spareMu.Lock()
	b := d.spare
	if b != nil {
		d.spare, d.spares = b.next, d.spares-1
	}
	d.spareMu.Unlock()
	if b == nil {
		return new(block[T])
	}
	b.next = nil
	return b
}

// recycle keeps a block that has emptied as a spare, unless the depot
// already keeps depotShards.
func (d *depot[T]) recycle(b *block[T]) {
	d.spareMu.Lock()
	if d.spares < depotShards {
		b.next, d.spare = d.spare, b
		d.spares++
	}
	d.spareMu.Unlock()
}

// lock locks the shard a put parks on: the hinted one, or, when another
// process holds it, the first free one after it, which the hint then
// names.  Uncontended, a depot parks everything on one shard, whose top is
// then its only partly empty block.
func (d *depot[T]) lock() *depotShard[T] {
	h := d.hint.Load()
	for i := uint32(0); i < depotShards; i++ {
		if s := &d.shards[(h+i)%depotShards]; s.mu.TryLock() {
			if i > 0 {
				d.hint.Store(h + i)
			}
			return s
		}
	}
	s := &d.shards[h%depotShards]
	s.mu.Lock()
	return s
}

// put parks xs on one shard under a single lock.
func (d *depot[T]) put(xs ...*T) {
	n := len(xs)
	s := d.lock()
	for len(xs) > 0 {
		b := s.room(d)
		c := copy(b.slot[b.n:], xs)
		b.n += c
		xs = xs[c:]
	}
	s.mu.Unlock()
	d.size.Add(int64(n))
}

// take moves up to k parked objects onto dst, sweeping shards from the
// one puts go to, and returns dst.
func (d *depot[T]) take(dst []*T, k int) []*T {
	if d.size.Load() == 0 {
		return dst
	}
	had := len(dst)
	start := d.hint.Load()
	for i := uint32(0); i < depotShards && k > 0; i++ {
		s := &d.shards[(start+i)%depotShards]
		s.mu.Lock()
		for k > 0 && s.top != nil {
			b := s.top
			c := min(k, b.n)
			dst = append(dst, b.slot[b.n-c:b.n]...)
			clear(b.slot[b.n-c : b.n])
			b.n -= c
			k -= c
			if b.n == 0 {
				s.top = b.next
				d.recycle(b)
			}
		}
		s.mu.Unlock()
	}
	d.size.Add(int64(had - len(dst)))
	return dst
}

// pop takes one object for the unbound root Ops.  When the depot is empty
// it carves a chunk from the heap, as a magazine does, keeps the first
// object and parks the rest on one shard: the units the unbound root
// allocates — a bulk load's, a parallel fork's — share chunks instead of
// each taking a heap object of its own size class.
func (d *depot[T]) pop() *T {
	var one [1]*T
	if len(d.take(one[:0], 1)) == 1 {
		return one[0]
	}
	blk := d.carve()
	s := d.lock()
	for i := 1; i < len(blk); i++ {
		b := s.room(d)
		b.slot[b.n] = &blk[i]
		b.n++
	}
	s.mu.Unlock()
	d.size.Add(int64(len(blk) - 1))
	return &blk[0]
}

// carve allocates a fresh chunk from the Go heap and counts its bytes.
func (d *depot[T]) carve() []T {
	var x T
	d.carved.Add(int64(classBytes(uintptr(d.chunk) * unsafe.Sizeof(x))))
	return make([]T, d.chunk)
}

// slots is the pointer slots the depot's blocks hold, parked or spare.
func (d *depot[T]) slots() int {
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for b := s.top; b != nil; b = b.next {
			n += blockSlots
		}
		s.mu.Unlock()
	}
	d.spareMu.Lock()
	n += d.spares * blockSlots
	d.spareMu.Unlock()
	return n
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
	// both empty.
	blk []T
	bi  int

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
		nodes:  magazine[Node[K, V, A]]{d: &o.sh.nodes, mag: make([]*Node[K, V, A], 0, magCap)},
		leaves: leafMagazine(&o.sh.leaves),
		narrow: leafMagazine(&o.sh.narrow),
	}
}

// leafMagazine is an empty magazine of leaf units of type T, sized in bytes.
func leafMagazine[T any](d *depot[T]) magazine[T] {
	return magazine[T]{d: d, mag: make([]*T, 0, unitsIn[T](magLeafBytes))}
}

// unitsIn is how many units of type T fit in the given bytes, and at least
// two, so that a magazine moves at least one unit a block.
func unitsIn[T any](bytes uintptr) int {
	var u T
	return max(2, int(bytes/unsafe.Sizeof(u)))
}

// leafChunk is how many leaf units of type T a fresh chunk carves.
func leafChunk[T any]() int {
	var u T
	return chunkUnits(unsafe.Sizeof(u))
}

// chunkUnits is how many units of the given size a leaf chunk holds so
// that the chunk fills its Go size class: of the counts from half as many
// as fit in chunkLeafBytes up to as many, the one whose bytes leave the
// least of their class unused, the larger of two that leave as little.
// 656-byte units make chunks of 29 (19 024 B of the 19 072-byte class)
// where 49 would leave 1.9 % of 32 KiB unused; 1 KiB units stay at 32.
func chunkUnits(unit uintptr) int {
	fit := func(n int) (unused, class uintptr) {
		b := uintptr(n) * unit
		c := classBytes(b)
		return c - b, c
	}
	hi := max(1, int(chunkLeafBytes/unit))
	best := hi
	for n := hi - 1; n >= (hi+1)/2; n-- {
		u, c := fit(n)
		bu, bc := fit(best)
		if u*bc < bu*c { // u/c < bu/bc
			best = n
		}
	}
	return best
}

// get returns a free object: magazine first, then the current chunk, then
// a block refill from the depot, then a fresh chunk.
func (m *magazine[T]) get() *T {
	if len(m.mag) == 0 {
		if m.bi == len(m.blk) && !m.refill(cap(m.mag)/2) {
			m.blk, m.bi = m.d.carve(), 0
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

// Footprint reports what the family's allocator holds of the Go heap
// beside its units' own accounting: the bytes of every chunk its magazines
// and depots ever carved, as the heap rounds them, and the pointer slots
// its depots hold now, parked or empty.  Read it at quiescence, like
// Allocs.
func (o *Ops[K, V, A]) Footprint() (carved int64, slots int) {
	sh := o.sh
	carved = sh.nodes.carved.Load() + sh.leaves.carved.Load() + sh.narrow.carved.Load()
	return carved, sh.nodes.slots() + sh.leaves.slots() + sh.narrow.slots()
}

// Package core assembles the paper's transactional system (Section 5,
// Figure 1): a multiversion ordered map built from a purely functional
// tree (internal/ftree) and a Version Maintenance algorithm (internal/vm),
// with reference-counting garbage collection that is safe and precise
// (Theorem 5.3) and strict serializability (Theorem 5.1).
//
// A read transaction acquires a version, runs arbitrary user code against
// that immutable snapshot, then releases and collects; its response is
// ready as soon as the user code finishes, so reads are delay-free
// (Theorem 5.4).  A write transaction acquires a version, path-copies a new
// one, publishes it with Set, then releases and collects; with the PSWF
// algorithm a solo writer has O(P) delay, and concurrent writers are
// lock-free (a failed Set implies some other writer succeeded).
package core

import (
	"fmt"
	"sync/atomic"

	"mvgc/internal/ftree"
	"mvgc/internal/vm"
)

// Map is a multiversion transactional ordered map for P processes.  The
// pid-indexed methods (Read, Update, TryUpdate) take the calling process's
// identifier pid ∈ [0, P); a given pid must not be used concurrently,
// matching the Version Maintenance contract.  Goroutine-oriented callers
// should not manage pids by hand: lease a Handle (see handle.go) and let
// the map's lease enforce the contract.
type Map[K, V, A any] struct {
	ops *ftree.Ops[K, V, A]
	m   vm.Maintainer[ftree.Node[K, V, A]]
	// procs[p] is everything process p owns (see proc); free is the lease
	// that hands the P records out one holder at a time (handle.go).
	procs []proc[K, V, A]
	free  lease

	// TrackVersions enables sampling of the version count at the start of
	// every write transaction (the Table 2 / Figure 6 metric).
	TrackVersions bool
	maxVersions   atomic.Int64

	commits atomic.Int64
	aborts  atomic.Int64
	closed  atomic.Bool
}

// proc is the state one process owns.  Pid exclusivity (one leaseholder at
// a time, never concurrent) is exactly the single-owner discipline every
// field needs, so none of it is synchronized except the free-list link.
type proc[K, V, A any] struct {
	// The pid's transactions run on ops, an Ops view bound to arena — the
	// pid's magazines of nodes and leaf units (see ftree.Arena) — so the
	// path-copying write path allocates and collects with no locks.  txn
	// and rbuf are the reusable write transaction and Release collect
	// buffer, which together with the arena make a warm point update
	// allocate nothing from the Go heap.
	arena *ftree.Arena[K, V, A]
	ops   *ftree.Ops[K, V, A]
	txn   Txn[K, V, A]
	rbuf  []*ftree.Node[K, V, A]
	// handle is what Map.With lends out, so a scoped lease allocates
	// nothing; next links the pid into the lease's free stack.
	handle Handle[K, V, A]
	next   atomic.Int32
	_      [64]byte // keeps neighbouring pids' records off one cache line
}

// Config selects the Version Maintenance algorithm and process count.
type Config struct {
	// Algorithm is one of vm.Names(): base, pswf, pslf, hp, epoch, rcu,
	// sbgc.
	// Empty selects pswf.
	Algorithm string
	// Procs is the number of processes P that will use the map.
	Procs int
	// NoRecycle disables node recycling (the pid-local magazine allocator
	// and the shared depot), so every mk allocates fresh from the Go
	// heap — the ablation NewMap's recycling-on default is measured
	// against (BenchmarkAllocPointUpdate, BenchmarkAllocBatchCommit).
	NoRecycle bool
}

// NewMap creates a transactional map whose initial version holds the given
// entries (in any order; later duplicates win).  ops supplies ordering,
// augmentation and the collector shared by all versions.
func NewMap[K, V, A any](cfg Config, ops *ftree.Ops[K, V, A], initial []ftree.Entry[K, V]) (*Map[K, V, A], error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("core: Procs must be positive, got %d", cfg.Procs)
	}
	if cfg.Procs > vm.MaxProcs {
		return nil, fmt.Errorf("core: Procs %d exceeds the version-maintenance limit %d", cfg.Procs, vm.MaxProcs)
	}
	alg := cfg.Algorithm
	if alg == "" {
		alg = "pswf"
	}
	// Recycling is on by default: with pid-local arenas the collector's
	// "free instruction" feeds the next allocation without locks, which is
	// the paper's version-memory reuse.  cfg.NoRecycle is the ablation.
	ops.Recycle = !cfg.NoRecycle
	root := ops.MultiInsert(nil, initial, nil) // owned token goes to the VM
	m := vm.New[ftree.Node[K, V, A]](alg, cfg.Procs, root)
	if m == nil {
		ops.Release(root)
		return nil, fmt.Errorf("core: unknown version-maintenance algorithm %q (want one of %v)", alg, vm.Names())
	}
	mp := &Map[K, V, A]{ops: ops, m: m, procs: make([]proc[K, V, A], cfg.Procs)}
	mp.free.wake.L = &mp.free.mu
	for pid := cfg.Procs - 1; pid >= 0; pid-- {
		p := &mp.procs[pid]
		p.arena = ops.NewArena()
		p.ops = ops.Bound(p.arena)
		p.rbuf = make([]*ftree.Node[K, V, A], 0, 4)
		p.handle = Handle[K, V, A]{m: mp, pid: pid, scoped: true}
		mp.release(pid) // pid 0 ends up on top of the free stack
	}
	return mp, nil
}

// Ops exposes the tree operations (and their allocation accounting).
func (m *Map[K, V, A]) Ops() *ftree.Ops[K, V, A] { return m.ops }

// Procs returns the process count P.
func (m *Map[K, V, A]) Procs() int { return len(m.procs) }

// Algorithm returns the Version Maintenance algorithm in use.
func (m *Map[K, V, A]) Algorithm() string { return m.m.Name() }

// Commits returns the number of committed write transactions.
func (m *Map[K, V, A]) Commits() int64 { return m.commits.Load() }

// Aborts returns the number of Set failures (each implies a conflicting
// concurrent commit).
func (m *Map[K, V, A]) Aborts() int64 { return m.aborts.Load() }

// Uncollected reports the number of versions currently retained.
func (m *Map[K, V, A]) Uncollected() int { return m.m.Uncollected() }

// MaxVersions returns the peak version count sampled at write-transaction
// starts (requires TrackVersions).
func (m *Map[K, V, A]) MaxVersions() int64 { return m.maxVersions.Load() }

// collect runs Figure 1's cleanup loop for pid — the end of every
// transaction: Algorithm 5's collect on every version the VM hands back,
// releasing through pid's bound ops so freed nodes land in pid's arena,
// ready for its next allocation.  The VM appends into pid's reusable
// buffer, so a steady-state cleanup phase allocates nothing.
func (m *Map[K, V, A]) collect(pid int) {
	p := &m.procs[pid]
	buf := m.m.ReleaseInto(pid, p.rbuf[:0])
	for _, r := range buf {
		p.ops.Release(r)
	}
	p.rbuf = buf[:0]
}

// Read runs a read-only transaction on process pid (Figure 1, left).  The
// snapshot passed to f is immutable and valid only within f.
func (m *Map[K, V, A]) Read(pid int, f func(s Snapshot[K, V, A])) {
	root := m.m.Acquire(pid)
	f(Snapshot[K, V, A]{ops: m.procs[pid].ops, root: root})
	// Response point: the transaction's result is complete here; what
	// follows is the cleanup phase.
	m.collect(pid)
}

// Snapshot is an immutable view of one version.  Reads cost exactly what
// they cost on the underlying functional tree — no synchronization, no
// version lists — which is what makes read transactions delay-free.
type Snapshot[K, V, A any] struct {
	ops  *ftree.Ops[K, V, A]
	root *ftree.Node[K, V, A]
}

// Get returns the value stored under k.
func (s Snapshot[K, V, A]) Get(k K) (V, bool) { return s.ops.Find(s.root, k) }

// GetBatch looks keys[i] up into vals[i] and found[i] (both at least
// len(keys) long), all against this one version, descending several lookups
// at a time (ftree.Ops.FindBatch).
func (s Snapshot[K, V, A]) GetBatch(keys []K, vals []V, found []bool) {
	s.ops.FindBatch(s.root, keys, vals, found)
}

// Has reports whether k is present.
func (s Snapshot[K, V, A]) Has(k K) bool { return s.ops.Has(s.root, k) }

// Len returns the number of entries.
func (s Snapshot[K, V, A]) Len() int64 { return s.ops.Size(s.root) }

// AugRange folds the augmented value over keys in [lo, hi] in O(log n).
func (s Snapshot[K, V, A]) AugRange(lo, hi K) A { return s.ops.AugRange(s.root, lo, hi) }

// Range returns the entries with keys in [lo, hi].
func (s Snapshot[K, V, A]) Range(lo, hi K) []ftree.Entry[K, V] {
	return s.ops.RangeEntries(s.root, lo, hi)
}

// ForEach visits all entries in key order.
func (s Snapshot[K, V, A]) ForEach(f func(K, V)) { s.ops.ForEach(s.root, f) }

// ForEachCond visits entries in key order until f returns false; it
// reports whether the walk ran to completion.  This is the streaming
// alternative to Range when the caller wants the first k entries: nothing
// is materialized and the walk stops the moment f says so.
func (s Snapshot[K, V, A]) ForEachCond(f func(K, V) bool) bool {
	return s.ops.ForEachCond(s.root, f)
}

// ScanFunc streams up to n entries with keys ≥ lo, in key order, to f,
// stopping early if f returns false; it returns the number visited.  The
// short ordered scan, without materializing a Range slice.
func (s Snapshot[K, V, A]) ScanFunc(lo K, n int, f func(K, V) bool) int {
	if n <= 0 {
		return 0
	}
	got := 0
	s.ops.ForEachCondFrom(s.root, lo, func(k K, v V) bool {
		got++
		if !f(k, v) {
			return false
		}
		return got < n
	})
	return got
}

// Select returns the entry of zero-based rank i.
func (s Snapshot[K, V, A]) Select(i int64) (ftree.Entry[K, V], bool) {
	return s.ops.Select(s.root, i)
}

// Rank returns the number of keys strictly below k.
func (s Snapshot[K, V, A]) Rank(k K) int64 { return s.ops.Rank(s.root, k) }

// Min returns the smallest entry.
func (s Snapshot[K, V, A]) Min() (ftree.Entry[K, V], bool) { return s.ops.Min(s.root) }

// Max returns the largest entry.
func (s Snapshot[K, V, A]) Max() (ftree.Entry[K, V], bool) { return s.ops.Max(s.root) }

// Root exposes the version root for integration with ftree set operations;
// the pointer is borrowed and must not outlive the transaction.
func (s Snapshot[K, V, A]) Root() *ftree.Node[K, V, A] { return s.root }

// Txn is the mutable handle passed to write transactions.  User code reads
// the acquired version and accumulates a path-copied replacement; the
// original is never modified.  The pointer is valid only within the
// transaction callback: the struct is pid-local and reused by the next
// transaction on the same process.
type Txn[K, V, A any] struct {
	ops   *ftree.Ops[K, V, A]
	base  *ftree.Node[K, V, A] // the acquired version (borrowed)
	cur   *ftree.Node[K, V, A] // owned iff dirty
	dirty bool
}

// apply installs a new intermediate root, collecting the previous one if
// this transaction owned it.
func (t *Txn[K, V, A]) apply(root *ftree.Node[K, V, A]) {
	if t.dirty {
		t.ops.Release(t.cur)
	}
	t.cur = root
	t.dirty = true
}

// Snapshot returns a read view of the transaction's current state,
// including its own uncommitted writes.
func (t *Txn[K, V, A]) Snapshot() Snapshot[K, V, A] {
	return Snapshot[K, V, A]{ops: t.ops, root: t.cur}
}

// Get reads through the transaction's current state.
func (t *Txn[K, V, A]) Get(k K) (V, bool) { return t.ops.Find(t.cur, k) }

// Insert adds or replaces one entry.
func (t *Txn[K, V, A]) Insert(k K, v V) { t.apply(t.ops.Insert(t.cur, k, v)) }

// InsertWith adds one entry, combining with any existing value.
func (t *Txn[K, V, A]) InsertWith(k K, v V, comb func(old, new V) V) {
	t.apply(t.ops.InsertWith(t.cur, k, v, comb))
}

// Delete removes one entry.
func (t *Txn[K, V, A]) Delete(k K) { t.apply(t.ops.Delete(t.cur, k)) }

// InsertBatch adds a whole batch atomically using the multi-insert; nil
// comb overwrites.  The batch is sorted by key and its duplicates coalesced
// in place (ftree.Ops.SortEntries); the result, which aliases batch, is
// returned: one entry per key, what the transaction wrote.  What batch
// holds beyond that length is stale, so a log encodes the returned slice
// and a transaction that may re-run hands it to the next attempt.
func (t *Txn[K, V, A]) InsertBatch(batch []ftree.Entry[K, V], comb func(old, new V) V) []ftree.Entry[K, V] {
	batch = t.ops.SortEntries(batch, comb)
	t.apply(t.ops.InsertSorted(t.cur, batch, comb))
	return batch
}

// DeleteBatch removes a set of keys atomically; keys is sorted in place.
func (t *Txn[K, V, A]) DeleteBatch(keys []K) { t.apply(t.ops.MultiDelete(t.cur, keys)) }

// SetRoot replaces the transaction's state with an owned tree built by the
// caller through ftree operations (e.g. a Union); the transaction takes
// ownership of root's token.
func (t *Txn[K, V, A]) SetRoot(root *ftree.Node[K, V, A]) { t.apply(root) }

// Changed reports whether the transaction, as it stands, would publish a
// version: it wrote, and what it wrote is not the root it acquired.  Read at
// the end of the transaction callback, it says whether the commit publishes
// anything (a delete of an absent key does not).
func (t *Txn[K, V, A]) Changed() bool { return t.dirty && t.cur != t.base }

// Update runs a write transaction on process pid (Figure 1, right),
// retrying on conflict until it commits; it returns the number of retries.
// A transaction that makes no modifications degenerates to a read.  Retries
// imply other writers committed, so the loop is lock-free.
func (m *Map[K, V, A]) Update(pid int, f func(t *Txn[K, V, A])) int {
	retries := 0
	for !m.TryUpdate(pid, f, nil) {
		retries++
	}
	return retries
}

// TryUpdate is the one write path: a write transaction on process pid
// (Figure 1, right) that aborts instead of retrying; it reports whether the
// transaction committed.  then, when non-nil, runs once the transaction has
// committed — its version published, or nothing to publish — between the
// response point and the cleanup phase, and not at all on an abort.  There
// a caller finishes what the commit owes before anyone may follow it (the
// sharded map stamps, logs and frees its writer slot), so a competing
// writer does not wait out this one's collect.  The collect still runs on
// pid before TryUpdate returns, even if then panics: GC is as precise with
// then as without.
func (m *Map[K, V, A]) TryUpdate(pid int, f func(t *Txn[K, V, A]), then func()) bool {
	if m.TrackVersions {
		u := int64(m.m.Uncollected())
		for {
			cur := m.maxVersions.Load()
			if u <= cur || m.maxVersions.CompareAndSwap(cur, u) {
				break
			}
		}
	}
	root := m.m.Acquire(pid)
	p := &m.procs[pid]
	po := p.ops
	// The transaction struct is pid-local and reused across transactions
	// (pid exclusivity makes that safe), so a warm write allocates only
	// tree nodes — which come from pid's arena.
	tx := &p.txn
	*tx = Txn[K, V, A]{ops: po, base: root, cur: root}
	f(tx)
	if tx.Changed() {
		if !m.m.Set(pid, tx.cur) {
			m.aborts.Add(1)
			m.collect(pid)
			po.Release(tx.cur) // collect the never-published version
			return false
		}
		m.commits.Add(1)
	} else if tx.dirty {
		// Nothing to publish.  A dirty transaction can still end at the
		// acquired root pointer (e.g. deleting an absent key); publishing
		// it would retire the current version while it stays current, so
		// treat it as a no-op too.
		po.Release(tx.cur)
	}
	// Response point: the new version, if any, is visible.  What follows
	// is the cleanup phase.
	if then != nil {
		defer m.collect(pid)
		then()
		return true
	}
	m.collect(pid)
	return true
}

// Close drains the Version Maintenance object and collects every remaining
// version, then flushes every pid arena back to the shared depot so
// no parked memory is stranded with the dead map.  All processes must have
// quiesced.  After Close, Live() on the Ops reports any leaked nodes (zero
// when the system is correct; arena- and list-parked nodes count as free).
func (m *Map[K, V, A]) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	for _, r := range m.m.Drain() {
		m.ops.Release(r)
	}
	for pid := range m.procs {
		m.procs[pid].arena.Flush()
	}
}

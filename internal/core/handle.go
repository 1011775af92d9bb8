package core

import (
	"sync"
	"sync/atomic"
)

// This file is the goroutine-facing face of the map: the Version
// Maintenance contract wants a fixed set of P processes, each calling
// Acquire/Set/Release with its own pid and never concurrently, while Go
// servers want to run a transaction from whichever goroutine happens to
// hold the request.  A Handle bridges the two worlds: it owns a leased pid
// and forwards transactions to it, so user code never sees a pid at all.
//
// There is one lease over all P pids and one way through it: acquire pops a
// pid, release pushes it back.  Map.With is the scoped pair around a
// callback — what every point operation and commit uses — and
// Map.Handle/Handle.Close the unscoped pair for a worker that wants to keep
// one pid for a while (an experiment harness thread, a benchmark worker).
// Holding a pid is admission: at most P transactions run at once, and a
// long-lived Handle simply keeps one pid out of circulation.
//
// A Map may be driven either through handles or through the raw
// pid-indexed methods (the seed's contract, where the caller statically
// assigns pids 0..P-1).  The two styles must not be mixed on one Map: the
// lease hands out the full pid space, so a raw pid may collide with a
// leased one.

// lease is the free list of pids: an intrusive stack over the process
// records themselves (proc.next links free pids), so leasing allocates
// nothing and costs one CAS at each end.  head packs the top of the stack
// into one CAS-able word: the low 32 bits hold pid+1 (0 = every pid is
// leased), the high 32 bits a version counter bumped by every successful
// push and pop, so a stale CAS can never succeed (no ABA).
//
// An empty stack is the only slow path.  A goroutine that finds it empty
// registers in waiters (under mu), re-tries the pop, and only then sleeps
// on wake; a release that sees waiters != 0 after its push signals under
// mu.  Either the releaser's load sees the registration and signals — and
// mu orders that signal after the waiter is parked — or the registration
// came after the load and the waiter's re-try sees the pushed pid: no lost
// wake-up, and nobody polls.
type lease struct {
	head    atomic.Uint64
	waiters atomic.Int32
	mu      sync.Mutex
	wake    sync.Cond // L is &mu; set by NewMap
}

// acquire leases a pid, sleeping while all P are leased.
func (m *Map[K, V, A]) acquire() int {
	l := &m.free
	registered := false
	for {
		h := l.head.Load()
		top := uint32(h)
		if top != 0 {
			// next is written only by the pusher that owned top; a racing
			// pop may read a stale link but its CAS then fails on the
			// version.
			below := uint32(m.procs[top-1].next.Load())
			if !l.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(below)) {
				continue
			}
			if registered {
				l.waiters.Add(-1)
				l.mu.Unlock()
			}
			return int(top - 1)
		}
		if registered {
			l.wake.Wait()
			continue
		}
		l.mu.Lock()
		l.waiters.Add(1)
		registered = true
	}
}

// release returns a leased pid and wakes one sleeper if there is any.
func (m *Map[K, V, A]) release(pid int) {
	l := &m.free
	for {
		h := l.head.Load()
		m.procs[pid].next.Store(int32(uint32(h)))
		if l.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(pid+1)) {
			break
		}
	}
	if l.waiters.Load() != 0 {
		l.mu.Lock()
		l.wake.Signal()
		l.mu.Unlock()
	}
}

// Handle is a leased process identity on a Map.  It may migrate between
// goroutines, but its methods must never run concurrently — exactly the
// Version Maintenance contract, enforced by lease exclusivity rather than
// by caller discipline.
//
// A handle owns its pid's process record for the duration of the lease:
// transactions run on an Ops view bound to the pid's node arena
// (ftree.Arena), so the write path allocates and collects through a
// single-owner magazine with no locks.  The record belongs to the pid, not
// the handle struct — release a pid and re-lease it and the magazine is
// still warm.
type Handle[K, V, A any] struct {
	m   *Map[K, V, A]
	pid int
	// scoped marks the per-pid handles With lends out: With's return is
	// their release, so Close on one is a no-op.
	scoped bool
	closed bool
}

// Handle leases a process identity, blocking while all P are in use
// (admission control: at most P transactions run at once).  The caller
// must Close it.
func (m *Map[K, V, A]) Handle() *Handle[K, V, A] {
	return &Handle[K, V, A]{m: m, pid: m.acquire()}
}

// With runs f with a leased handle and releases the lease when f returns —
// the form every short transaction takes.  Like Handle it blocks while all
// P pids are in use.  The handle is the pid's own preallocated one, so a
// warm With allocates nothing; it is valid only within f.
func (m *Map[K, V, A]) With(f func(h *Handle[K, V, A])) {
	pid := m.acquire()
	defer m.release(pid)
	f(&m.procs[pid].handle)
}

// Close returns the leased pid.  The handle must not be used afterwards;
// Close is idempotent, and a no-op on the handle With passes its callback
// (With releases that lease itself, exactly once).
func (h *Handle[K, V, A]) Close() {
	if h.scoped || h.closed {
		return
	}
	h.closed = true
	h.m.release(h.pid)
}

// Pid exposes the leased pid for integration with pid-indexed code (e.g.
// experiment harnesses that index per-process counters).
func (h *Handle[K, V, A]) Pid() int { return h.pid }

// Read runs a read-only transaction on the leased process.
func (h *Handle[K, V, A]) Read(f func(s Snapshot[K, V, A])) { h.m.Read(h.pid, f) }

// Update runs a write transaction on the leased process, retrying on
// conflict until it commits; it returns the number of retries.
func (h *Handle[K, V, A]) Update(f func(t *Txn[K, V, A])) int { return h.m.Update(h.pid, f) }

// TryUpdate runs a write transaction that aborts instead of retrying, with
// then between its response point and its cleanup phase (Map.TryUpdate); it
// reports whether the transaction committed.
func (h *Handle[K, V, A]) TryUpdate(f func(t *Txn[K, V, A]), then func()) bool {
	return h.m.TryUpdate(h.pid, f, then)
}

// ArenaStats exposes the leased pid's arena counters (refills, spills,
// chunk carves) for tests and tuning; call only while holding the lease.
func (h *Handle[K, V, A]) ArenaStats() (refills, spills, carves int64) {
	return h.m.procs[h.pid].arena.Stats()
}

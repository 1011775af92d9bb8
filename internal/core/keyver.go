package core

// This file adds per-key version words — the optimistic-concurrency
// metadata that lets a multi-key transaction validate its reads at install
// time against EVERY writer, including plain point updates that never touch
// the writer slot ("unfenced" writers).  The GSN machinery in stamp.go
// orders whole commits; the table here answers a finer question: "has ANY
// write landed on this key since I read it?"  Following the
// keep-validation-metadata-outside-the-version-lists discipline of the
// bounded-space multiversion collectors (Wei et al., PPoPP 2021), the words
// live in a fixed striped table owned by the Map, never in tree nodes: they
// retain no versions, so GC precision (Live() == 0 after Close, per-shard
// version bounds) is untouched by OCC bookkeeping.
//
// # Why a seqlock word and not a CAS-max GSN
//
// The obvious design — after a commit's Set, CAS-max the committing GSN
// into the key's word, mirroring LatestStamp — is unsound for validation:
// a writer preempted between its Set (write visible) and its version bump
// leaves an unbounded window in which a validator re-reads the stale word,
// concludes "unchanged", and commits over the invisible write.  Publishing
// the word BEFORE Set has the mirror-image hole (a reader records the
// pre-announced word, reads the old value, and validates against its own
// staleness).  A single monotone word cannot be ordered with a lock-free
// Set from one side only; the fix — the same one seqlock-style optimistic
// readers use (cf. EEMARQ's revalidation of optimistic reads) — is to
// bracket the Set: announce "writer in flight" before it and retire the
// announcement after it.  Because several lock-free writers can share a
// stripe, the in-flight mark must be a counter, not a parity bit, so each
// stripe word packs an in-flight count above a completed-write count (the
// full layout, including the install lock added below, is in the next
// section).  Both transitions are single atomic Adds.  A stable read of the word
// (in-flight == 0, not install-locked) names an exact write-state of the
// stripe: reading the same stable word before and after a value read proves
// the value corresponds to that state, and re-reading the identical word at
// install time proves no writer even STARTED a commit on the stripe in
// between — Set is inside the bracket, so "no bracket" implies "no write".
// The commit path gains two uncontended striped Adds and no allocation (the
// stripe list rides in the pid-local reusable Txn), which allocbench's
// 0 B/op point-update cells gate.
//
// # The install lock (bit 63)
//
// Validation alone cannot make a multi-key transaction's install atomic:
// between "validate passed" and "new roots published" an unfenced point
// writer could still commit on a key the transaction WRITES, and the
// install's absolute values — computed from the validated reads — would
// overwrite it: a lost update no serial order admits.  The top bit of each
// stripe word closes that window, the write-lock half of classic OCC (lock
// the write set, validate the read set, install, unlock — the Silo/BOCC
// shape):
//
//	bit  63      install lock (LockStripes / UnlockStripes)
//	bits 62..48  writers in flight (enter +1, exit -1)
//	bits 47..0   completed-write count (exit +1)
//
// An installer — which must hold the map's writer slot, so at most one
// holder per stripe table — sets the bit on its write-set stripes BEFORE
// validating and clears it after its last Set.  The lock has two effects:
// a locked stripe is never stable, so optimistic readers and validators of
// OTHER transactions treat it as moved and abort/wait rather than read a
// value the install is about to replace (this is also what forecloses
// write skew between two concurrent installers that read each other's
// write sets: lock-before-validate means at least one of them sees the
// other's lock and aborts); and an unfenced writer's commit bracket stalls
// on it — kvEnterTxn retracts its in-flight mark and waits — so no point
// write can land on the write set until the install's roots are visible,
// at which point the stalled writer's Set re-reads them (its root CAS fails
// and the transaction re-runs).  The stall is bounded: the lock window
// contains validation and the per-shard Sets, no user code.  Installer-own
// replays skip the stall via Txn.HoldsStripeLocks (stalling on your own
// lock is a deadlock, not a protocol).
//
// Striping trades false aborts (two keys hashing to one stripe) for O(1)
// space; it can never produce a false commit.  The table is sized off the
// map's process configuration and the stripe hash is remixed so that
// sibling shards — whose key sets are correlated by the shard-routing
// hash — spread over the whole table.

import (
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

const (
	// kvEnter is the in-flight field's unit (bits 62..48); the version
	// count lives below it and the install lock above.  48 bits of
	// completed writes (~2.8e14) cannot realistically wrap within one
	// transaction's read-validate window, and 15 bits of concurrent
	// writers exceeds vm.MaxProcs.
	kvEnter = uint64(1) << 48
	// kvUnenter retracts one in-flight mark without recording a write: the
	// backoff path of a writer that observed the install lock after
	// announcing itself.
	kvUnenter = ^kvEnter + 1
	// kvExit retires one in-flight mark and records one completed write:
	// -kvEnter + 1 in two's complement.
	kvExit = ^kvEnter + 2
)

// StripeLock is the install-lock bit of a stripe word: set by LockStripes
// over an installing transaction's write set, from before its read-set
// validation until after its last Set.  A locked stripe is never stable,
// and unfenced commit brackets stall on it.  Validators that themselves
// hold the lock mask this bit before comparing (their own lock is not a
// conflicting write); a foreign lock must fail validation.
const StripeLock = uint64(1) << 63

// StableStripe reports whether a stripe word was read with no writer in
// flight and no install lock held.  Only stable words may be recorded in a
// read set: an unstable word names no definite write-state.
func StableStripe(w uint64) bool { return w < kvEnter }

// Backoff is iteration i of a bounded-backoff wait: cheap yields first,
// then escalating sleeps capped at 100µs, so a loop that outlives the
// scheduler's patience (a wholesale SetRoot bracket, a mid-install lock, an
// OCC abort storm) stops burning a core without ever giving up.  Shared by
// the stripe wait loops here and the shard layer's read/retry loops.
func Backoff(i int) {
	if i < 16 {
		runtime.Gosched()
		return
	}
	d := time.Duration(i-15) * time.Microsecond
	if d > 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	time.Sleep(d)
}

// EnableKeyVersions switches on per-key version maintenance: every commit
// brackets its Set with in-flight marks on the (striped) version words of
// the keys it writes, which is what lets an optimistic multi-key
// transaction (shard.Map.UpdateAtomicKeys) validate its reads at install
// time against unfenced point writers.  hash maps a key onto the stripe
// space (it is remixed internally, so the shard-routing hash is fine);
// stripes is rounded up to a power of two, with a default sized off the
// map's process count when <= 0.  Must be called before the map is shared;
// maps that never host OCC transactions skip the call and pay one nil
// check per commit.
func (m *Map[K, V, A]) EnableKeyVersions(hash func(K) uint64, stripes int) {
	if stripes <= 0 {
		stripes = 128 * len(m.procs)
		if stripes < 256 {
			stripes = 256
		}
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	m.kvtab = make([]atomic.Uint64, n)
	m.kvmask = uint64(n - 1)
	m.kvhash = hash
}

// KeyVersionsEnabled reports whether EnableKeyVersions was called.
func (m *Map[K, V, A]) KeyVersionsEnabled() bool { return m.kvtab != nil }

// KeyStripe returns the version-table index key k is striped to.
func (m *Map[K, V, A]) KeyStripe(k K) uint64 { return kvMix(m.kvhash(k)) & m.kvmask }

// StripeWord loads stripe i's raw version word.  Record it in a read set
// only when StableStripe(w); equality with a later load proves no writer
// started a commit on the stripe in between.
func (m *Map[K, V, A]) StripeWord(i uint64) uint64 { return m.kvtab[i].Load() }

// StableStripeWord loads stripe i's word, waiting (bounded backoff) until
// no writer is in flight and no install lock is held on it.  The wait is
// bounded by the bracketing commits' Set calls and the install-lock window,
// neither of which contains user code — but a wholesale bracket (SetRoot, a
// table-scale batch) marks every stripe for its whole commit, so a reader
// colliding with one waits for that commit's Set.
func (m *Map[K, V, A]) StableStripeWord(i uint64) uint64 {
	for n := 0; ; n++ {
		if w := m.kvtab[i].Load(); StableStripe(w) {
			return w
		}
		Backoff(n)
	}
}

// LockStripes sets the install lock on each listed stripe.  Contract: the
// caller holds this map's writer slot (slot exclusivity is what makes the
// single bit a lock — at most one fenced transaction per shard can be
// installing), locks only stripes its install will write, and pairs the
// call with UnlockStripes on every path out, including aborts.  Duplicate
// stripe indices are harmless (Or is idempotent).  While a stripe is
// locked, stable reads of it wait, validators not holding the lock fail,
// and unfenced commit brackets stall (see kvEnterTxn); the caller's own
// installs pass by declaring Txn.HoldsStripeLocks.
func (m *Map[K, V, A]) LockStripes(stripes []uint64) {
	for _, s := range stripes {
		m.kvtab[s].Or(StripeLock)
	}
}

// UnlockStripes clears the install lock on each listed stripe, releasing
// any writers stalled on it.
func (m *Map[K, V, A]) UnlockStripes(stripes []uint64) {
	for _, s := range stripes {
		m.kvtab[s].And(^StripeLock)
	}
}

// kvNote records k's stripe in the transaction's touched list; past half
// the table's worth of UNIQUE stripes the per-key list stops paying and
// the commit degrades to a wholesale bracket (kvAll).  The list is
// appended blind (duplicates are harmless to the brackets), so before
// degrading it is deduplicated in place — a transaction rewriting a few
// keys many times must not flip to bracketing the whole table and stall
// every optimistic reader on the shard.  The dedup re-arms only after the
// list doubles (kvDedup), amortizing the sort to O(log n) per note even
// when the unique count hovers at the threshold.
func (t *Txn[K, V, A]) kvNote(k K) {
	m := t.m
	if m == nil || m.kvtab == nil || t.kvAll {
		return
	}
	if limit := len(m.kvtab) / 2; len(t.kstripes) >= limit && len(t.kstripes) >= t.kvDedup {
		slices.Sort(t.kstripes)
		t.kstripes = slices.Compact(t.kstripes)
		if len(t.kstripes) >= limit {
			t.kvAll = true
			return
		}
		t.kvDedup = 2 * len(t.kstripes)
	}
	t.kstripes = append(t.kstripes, m.KeyStripe(k))
}

// kvWholesale marks the transaction as touching an unknown or table-scale
// key set (SetRoot, very large batches): the commit brackets every stripe.
func (t *Txn[K, V, A]) kvWholesale() {
	if t.m != nil && t.m.kvtab != nil {
		t.kvAll = true
	}
}

// kvEnterTxn announces the transaction's written stripes as in-flight; it
// must run before Set, and every path out of the commit must pair it with
// kvExitTxn.  Duplicate stripes in the list are harmless (the brackets
// nest).  An unfenced transaction stalls here on any install-locked stripe
// — the write-lock half of the OCC install (see the header comment) — by
// retracting its announcement and waiting for the lock to clear, so the
// lost-update window between an installer's validation and its Sets does
// not exist.  Transactions that declared HoldsStripeLocks skip the stall:
// they run inside the very install holding the locks (and fenced
// transactions can never meet a foreign lock at all — locking requires the
// writer slot they hold).
func (m *Map[K, V, A]) kvEnterTxn(tx *Txn[K, V, A]) {
	if m.kvtab == nil {
		return
	}
	if tx.kvAll {
		for i := range m.kvtab {
			m.kvEnterStripe(uint64(i), tx.kvOwned)
		}
		return
	}
	for _, s := range tx.kstripes {
		m.kvEnterStripe(s, tx.kvOwned)
	}
}

// kvEnterStripe places one in-flight mark on stripe s, stalling while the
// stripe is install-locked unless the caller owns the lock.  The
// announce-check-retract shape keeps the uncontended path a single Add plus
// one branch on its result (no extra load), and the transient spurious mark
// a racing validator might observe can only cause a false abort.
func (m *Map[K, V, A]) kvEnterStripe(s uint64, owned bool) {
	for {
		if w := m.kvtab[s].Add(kvEnter); owned || w&StripeLock == 0 {
			return
		}
		m.kvtab[s].Add(kvUnenter)
		for n := 0; m.kvtab[s].Load()&StripeLock != 0; n++ {
			Backoff(n)
		}
	}
}

// kvExitTxn retires the in-flight marks and counts one completed write per
// bracket.  It runs after Set whether or not the Set succeeded: a failed
// attempt's spurious version tick can only cause a false abort, never a
// false commit.
func (m *Map[K, V, A]) kvExitTxn(tx *Txn[K, V, A]) {
	if m.kvtab == nil {
		return
	}
	if tx.kvAll {
		for i := range m.kvtab {
			m.kvtab[i].Add(kvExit)
		}
		return
	}
	for _, s := range tx.kstripes {
		m.kvtab[s].Add(kvExit)
	}
}

// kvMix is SplitMix64's finalizer: it decorrelates the stripe index from
// the shard-routing hash (whose low bits are constant within one shard) so
// sibling shards use their whole tables.
func kvMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

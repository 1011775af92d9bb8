// The global commit sequence number (GSN) protocol, in one place.  Every
// version a shard publishes is stamped from one counter shared by all
// shards (Map.gsn), so the stamps form one global commit order — the
// single-stamp discipline EEMARQ (Sheffi et al.) and the epoch-based
// multiversion collectors (Ben-David et al., DISC 2021) use to cut a
// consistent snapshot across independent structures.  Each shard keeps
// three words beside its core.Map, in one padded record (shardRec), and
// only its writer-slot holder writes them:
//
//   - latest, the largest GSN the shard has committed.  A stamp is drawn
//     in one place, an install's close, only after its last leg has Set,
//     so observing latest >= g before pinning a version proves commit g is
//     in it: a stamp never leads its own visibility.  The slot serialises a
//     shard's stamps, so publishing one is a counter Add and a plain Store.
//   - seq, the install seqlock: odd while an install that writes two or
//     more shards is mid-flight.  ViewConsistent collects it before and
//     after pinning; two equal even reads prove no install overlapped the
//     pins.
//   - slot, the writer slot: the shard's one writer lock, held by every
//     commit from before its Set until after its log Append, and released
//     before the commit collects (but parallel atomic legs collect under
//     it; commitLegs).  Slots are taken in ascending shard order,
//     and always before the pid a commit runs on: no pid holder waits for a
//     slot, so a slot holder waiting for a pid waits only for transactions
//     that finish on their own.  A waiter spins before it parks
//     (LockWriterSlot).
//
// Because a stamp follows its Set, the counter itself, read before a
// consistent read's first pin, is a sound checkpoint cut: every commit
// stamped at or below it is in every pinned root (Checkpoint).  DESIGN.md,
// "The GSN protocol".
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mvgc/internal/core"
)

// shardRec is one shard: its core.Map and the protocol's words above.
type shardRec[K, V, A any] struct {
	*core.Map[K, V, A]
	slot   sync.Mutex
	latest atomic.Uint64
	seq    atomic.Uint64
	_      [32]byte // one cache line per shard: readers poll these words
}

// slotSpins is how many times LockWriterSlot tries a held slot, yielding
// between tries, before it parks on it.  A slot is held for a Set, a stamp
// and an Append — microseconds — so a waiter that yields usually gets it
// without an OS sleep and wake, and keeps its core busy meanwhile; a
// parked waiter's wake-up waits for an idle P.  Chosen by a sweep on
// embedded_txn_scan (DESIGN.md, "The commit pipeline").
const slotSpins = 1024

// LockWriterSlot takes the shard's writer slot: up to slotSpins tries,
// yielding the processor between them, then a parking Lock.
func (s *shardRec[K, V, A]) LockWriterSlot() {
	for range slotSpins {
		if s.slot.TryLock() {
			return
		}
		runtime.Gosched()
	}
	s.slot.Lock()
}

// UnlockWriterSlot releases it.
func (s *shardRec[K, V, A]) UnlockWriterSlot() { s.slot.Unlock() }

// lockSlots takes the writer slots of shards idx, which must be ascending.
func (m *Map[K, V, A]) lockSlots(idx []int) {
	for _, i := range idx {
		m.shards[i].LockWriterSlot()
	}
}

// unlockSlots releases the slots lockSlots took, in reverse.
func (m *Map[K, V, A]) unlockSlots(idx []int) {
	for j := len(idx) - 1; j >= 0; j-- {
		m.shards[idx[j]].UnlockWriterSlot()
	}
}

// install is one commit's install in flight, from openInstall until its
// first close.
type install[K, V, A any] struct {
	m    *Map[K, V, A]
	seqd []int // the shards whose seqlocks it holds odd; nil for one shard
	open bool
}

// openInstall starts the install of a commit that writes the shards in
// write, whose slots the caller holds.  One shard's commit is atomic on its
// own, so only an install that writes two or more drives their seqlocks
// odd: a ViewConsistent that overlaps its legs then retries.  The caller
// defers close(nil) at once, so a panic in a leg still ends the install.
func (m *Map[K, V, A]) openInstall(write []int) install[K, V, A] {
	in := install[K, V, A]{m: m, open: true}
	if len(write) > 1 {
		in.seqd = write
		for _, i := range write {
			m.shards[i].seq.Add(1)
		}
	}
	return in
}

// close ends the install once every leg has Set: it draws ONE GSN — the
// only place a commit's GSN is drawn — publishes it on each shard in
// published, and drives the seqlocks it holds even.  It returns the GSN,
// or 0 when nothing was published, which takes no stamp, and is a no-op
// returning 0 once the install has ended.  An install whose legs panic is
// closed by the deferred close(nil): the panic (a comb's) forfeits the
// transaction's atomicity — legs already installed stay, unstamped — but
// must not wedge every later consistent read.
func (in *install[K, V, A]) close(published []int) (g uint64) {
	if !in.open {
		return 0
	}
	in.open = false
	shards := in.m.shards
	if len(published) > 0 {
		g = in.m.gsn.Add(1)
		for _, i := range published {
			shards[i].latest.Store(g)
		}
	}
	for _, i := range in.seqd {
		shards[i].seq.Add(1)
	}
	return g
}

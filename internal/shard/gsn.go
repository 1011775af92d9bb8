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
//     only after its Set has landed (commitShard; installAtomic after the
//     last leg), so observing latest >= g before pinning a version proves
//     commit g is in it: a stamp never leads its own visibility.  The slot
//     serialises a shard's stamps, so publishing one is a counter Add and a
//     plain Store.
//   - seq, the install seqlock: odd while an atomic install is mid-flight.
//     ViewConsistent collects it before and after pinning; two equal even
//     reads prove no install overlapped the pins.
//   - slot, the writer slot: the shard's one writer lock, held by every
//     commit from before its Set until after its log Append.  Slots are taken
//     in ascending shard order, and always before the pid a commit runs on:
//     no pid holder waits for a slot, so a slot holder waiting for a pid
//     waits only for transactions that finish on their own.
//
// DESIGN.md, "The GSN protocol".
package shard

import (
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

// LockWriterSlot takes the shard's writer slot.
func (s *shardRec[K, V, A]) LockWriterSlot() { s.slot.Lock() }

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

// stamp draws the next GSN and publishes it as shard i's latest commit.
// The caller holds slot i and has just published a version there.
func (m *Map[K, V, A]) stamp(i int) uint64 {
	g := m.gsn.Add(1)
	m.shards[i].latest.Store(g)
	return g
}

// installAtomic is the cross-shard install, with the touched shards' slots
// held by the caller: drive their seqlocks odd, run commitAll — one commit
// per touched shard — then draw ONE GSN, publish it on every touched shard
// and drive the seqlocks even.  It returns the GSN, or 0 for an empty
// footprint, which installs nothing.  The seqlocks return even however
// commitAll exits: a panic out of user code (a comb) forfeits the
// transaction's atomicity — legs already installed stay, unstamped — but
// must not wedge every later consistent read; it propagates to the caller,
// which releases its slots by defer.
func (m *Map[K, V, A]) installAtomic(touched []int, commitAll func()) uint64 {
	if len(touched) == 0 {
		return 0
	}
	for _, i := range touched {
		m.shards[i].seq.Add(1)
	}
	defer func() {
		for _, i := range touched {
			m.shards[i].seq.Add(1)
		}
	}()
	commitAll()
	g := m.gsn.Add(1)
	for _, i := range touched {
		m.shards[i].latest.Store(g)
	}
	return g
}

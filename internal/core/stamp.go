package core

// This file adds the global commit sequence number (GSN) machinery that the
// shard layer builds cross-shard atomicity on.  Every committed root —
// whether a plain per-map commit or one leg of a cross-map atomic install —
// is stamped from a monotone counter, and each Map publishes the largest
// stamp it has committed.  When several Maps share one counter (see
// Config.Stamp), their stamps form a single global commit order, the same
// single-version-stamp discipline EEMARQ (Sheffi et al.) and the epoch-based
// multiversion collectors (Ben-David et al., DISC 2021) use to cut a
// consistent snapshot across independent structures.
//
// Three pieces live here, all lock-free on the commit path:
//
//   - The stamp itself: tryUpdate calls stamp() right after a successful
//     Set — one atomic Add on the (possibly shared) counter plus one
//     CAS-max on the map's latestStamp word.  No lock, no allocation, so
//     the point-op path is unchanged apart from those two RMWs.  Stamps
//     are allocated *after* the Set is visible, which is what makes the
//     reader protocol below sound: if a reader observed
//     LatestStamp() >= g before pinning a version, then commit g's root (and
//     those of every smaller stamp on this map) is contained in the pinned
//     version — a stamp can never lead its own visibility.
//
//   - The install seqlock (installSeq): a per-map sequence word that a
//     cross-map atomic installer drives odd before its first Set and even
//     again after its last.  A reader that collects the word before and
//     after pinning, and sees the same even value both times, is guaranteed
//     no atomic install overlapped the pin — the double-collect that makes
//     shard.Map.ViewConsistent tear-free without any reader lock.
//
//   - The writer slot (slotMu): a per-map mutex.  The map itself never
//     takes it — Read/Update/With stay mutex-free, and a standalone Map's
//     concurrent writers are lock-free — but a caller that makes every
//     commit hold it gets one writer per map, the paper's single-writer
//     setting: shard.Map does, for every write it accepts.  Deadlock-
//     freedom: multi-map operations acquire slots in ascending shard order
//     (ordered resource acquisition), and a slot is always taken before the
//     pid it commits under, never after — no pid holder waits for a slot,
//     so a slot holder waiting for a pid waits only for transactions that
//     complete on their own and then free it.

import "sync/atomic"

// LatestStamp returns the largest global commit sequence number this map has
// committed (0 before the first stamped commit).  Monotone; because stamps
// are published after their Set, any version acquired after observing
// LatestStamp() >= g contains every commit of this map stamped <= g.
func (m *Map[K, V, A]) LatestStamp() uint64 { return m.latestStamp.Load() }

// StampSource exposes the counter commits are stamped from, so sibling
// structures (e.g. an atomic installer allocating the transaction's single
// GSN) draw from the same sequence.
func (m *Map[K, V, A]) StampSource() *atomic.Uint64 { return m.stampSrc }

// BumpStamp publishes g as a committed stamp on this map (CAS-max, so
// concurrent committers with out-of-order stamps cannot regress the word).
// Plain commits call it internally; atomic installers call it once per
// touched map with the transaction's shared GSN after all roots are
// installed.
func (m *Map[K, V, A]) BumpStamp(g uint64) {
	for {
		cur := m.latestStamp.Load()
		if g <= cur || m.latestStamp.CompareAndSwap(cur, g) {
			return
		}
	}
}

// stamp allocates the next GSN, publishes it, and records it as pid's
// last commit stamp; called after every successful stamped Set.  The
// per-pid record is what lets a caller that just committed learn its
// own GSN (Handle.LastStamp) — e.g. to key the commit's redo record —
// without widening every transaction signature.
func (m *Map[K, V, A]) stamp(pid int) {
	g := m.stampSrc.Add(1)
	m.BumpStamp(g)
	m.procs[pid].lastStamp = g
}

// LockWriterSlot acquires the map's writer slot, the mutual exclusion among
// the writers that take it (see the file comment).  Callers locking slots
// on several maps must do so in ascending shard order, and before leasing
// a pid.
func (m *Map[K, V, A]) LockWriterSlot() { m.slotMu.Lock() }

// UnlockWriterSlot releases the writer slot.
func (m *Map[K, V, A]) UnlockWriterSlot() { m.slotMu.Unlock() }

// BeginInstall marks a cross-map atomic install in progress: the install
// seqlock goes odd.  The caller must hold the writer slot and must pair the
// call with EndInstall after its last Set on this map.
func (m *Map[K, V, A]) BeginInstall() { m.installSeq.Add(1) }

// EndInstall marks the install finished: the seqlock returns to even.  Call
// only after the installed root's stamp has been published (BumpStamp), so
// a reader whose double-collect straddles no install sees stamps and roots
// agree.
func (m *Map[K, V, A]) EndInstall() { m.installSeq.Add(1) }

// InstallSeq returns the install seqlock word: odd while an atomic install
// is mid-flight on this map.  Two equal even reads bracketing a version
// acquisition prove no atomic install overlapped it.
func (m *Map[K, V, A]) InstallSeq() uint64 { return m.installSeq.Load() }

// LockWriterSlots acquires the writer slots of maps[touched...] in
// ascending index order; touched must be sorted ascending (the ordered
// acquisition that keeps multi-map installers deadlock-free).
func LockWriterSlots[K, V, A any](maps []*Map[K, V, A], touched []int) {
	for _, i := range touched {
		maps[i].LockWriterSlot()
	}
}

// UnlockWriterSlots releases the slots taken by LockWriterSlots, in
// reverse order.
func UnlockWriterSlots[K, V, A any](maps []*Map[K, V, A], touched []int) {
	for j := len(touched) - 1; j >= 0; j-- {
		maps[touched[j]].UnlockWriterSlot()
	}
}

// InstallAtomic is the cross-map atomic install protocol, in one audited
// place: with the touched maps' writer slots already held by the caller,
// it drives their install seqlocks odd, runs commitAll — which must
// publish one unstamped commit (UpdateUnstamped) per touched map, in any
// order or in parallel — then allocates ONE stamp from the shared counter,
// publishes it on every touched map, and drives the seqlocks even.  The
// stamp is allocated after the last install so it never leads any of its
// roots' visibility, the invariant consistent readers rest on; the maps
// must share their stamp source (Config.Stamp), or the "one global order"
// the stamp promises would be fiction.  The stamp is returned — the
// transaction's global commit sequence number, which the WAL layer keys
// the install's redo record with — or 0 when touched is empty, which
// installs nothing and skips the protocol.
func InstallAtomic[K, V, A any](maps []*Map[K, V, A], touched []int, commitAll func()) uint64 {
	if len(touched) == 0 {
		return 0
	}
	for _, i := range touched {
		maps[i].BeginInstall()
	}
	// The seqlocks must return even no matter how commitAll exits: a panic
	// out of user code (a comb or cmp) mid-install forfeits the
	// transaction's atomicity — legs already installed stay installed,
	// unstamped — but must not leave the seqlocks odd, which would wedge
	// every future consistent read and install on these maps.  The panic
	// propagates to the caller (which must likewise release its slots).
	defer func() {
		for _, i := range touched {
			maps[i].EndInstall()
		}
	}()
	commitAll()
	g := maps[touched[0]].stampSrc.Add(1)
	for _, i := range touched {
		maps[i].BumpStamp(g)
	}
	return g
}

package shard

import (
	"slices"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// Txn buffers a cross-shard write transaction: Insert and Delete record
// intents, and Update (per-shard atomic) or UpdateAtomic (globally atomic,
// one GSN) replays each shard's intents in order.  Reads see the
// transaction's own buffered writes first — including deletes, so a
// get-after-delete inside the transaction reports absence — then the
// shard's current committed version.  Under UpdateAtomicKeys every
// authoritative read is additionally sampled into a read set that the
// install phase validates (and aborts on) against concurrent point writers.
type Txn[K, V, A any] struct {
	m       *Map[K, V, A]
	intents [][]intent[K, V]

	// occ marks an UpdateAtomicKeys transaction: authoritative reads go
	// through the stable-read protocol and land in reads, the read set the
	// install phase validates; wstripes lists, per shard, the write set's
	// stripes the install locks.  One Txn serves every attempt (reset in
	// place), so an abort storm does not reallocate them.
	occ      bool
	reads    []readSample
	wstripes [][]uint64
}

func (m *Map[K, V, A]) newTxn() *Txn[K, V, A] {
	return &Txn[K, V, A]{m: m, intents: make([][]intent[K, V], len(m.shards))}
}

// reset empties the plan for the next attempt (or the next record).  Stale
// wstripes must not survive: validation masks the lock bit exactly on the
// stripes listed there, and masking a stripe this attempt did not lock
// would validate a read another transaction's install is about to
// overwrite.
func (t *Txn[K, V, A]) reset() {
	for i := range t.intents {
		t.intents[i] = t.intents[i][:0]
	}
	for i := range t.wstripes {
		t.wstripes[i] = t.wstripes[i][:0]
	}
	t.reads = t.reads[:0]
}

type intent[K, V any] struct {
	del  bool
	key  K
	val  V
	comb func(old, new V) V // non-nil: combine with the value below (InsertWith)
}

// readSample records one validated optimistic read: the key's version
// stripe on its shard and the stable word observed there when the value was
// read.  Validation re-loads the stripe and requires the identical word —
// which proves no writer so much as started a commit on the stripe since.
type readSample struct {
	shard  int
	stripe uint64
	word   uint64
}

// Insert buffers an insert-or-replace of (k, v).
func (t *Txn[K, V, A]) Insert(k K, v V) {
	i := t.m.ShardFor(k)
	t.intents[i] = append(t.intents[i], intent[K, V]{key: k, val: v})
}

// InsertWith buffers an insert of (k, v) that combines with any existing
// value at commit time: comb(old, v) when k is present, plain v otherwise.
// Because the combination is evaluated against the value current at
// commit — and re-evaluated on conflict retry — commutative deltas (add,
// max, ...) are immune to lost updates even when the transaction's own
// reads were stale, which is what makes InsertWith the right primitive for
// transfers and counters.
func (t *Txn[K, V, A]) InsertWith(k K, v V, comb func(old, new V) V) {
	i := t.m.ShardFor(k)
	t.intents[i] = append(t.intents[i], intent[K, V]{key: k, val: v, comb: comb})
}

// Delete buffers a removal of k.
func (t *Txn[K, V, A]) Delete(k K) {
	i := t.m.ShardFor(k)
	t.intents[i] = append(t.intents[i], intent[K, V]{del: true, key: k})
}

// touched returns the indices of shards with at least one buffered intent,
// in ascending order (intents is indexed by shard).
func (t *Txn[K, V, A]) touched() []int {
	var out []int
	for i, list := range t.intents {
		if len(list) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// Get reads through the transaction's buffered writes (latest intent for k
// wins; a buffered delete reports absence), falling back to a point read of
// k's shard's current version.  Combining intents (InsertWith) are folded,
// in buffer order, on top of the latest authoritative value below them.
func (t *Txn[K, V, A]) Get(k K) (V, bool) {
	i := t.m.ShardFor(k)
	cmp := t.m.shards[i].Ops().Cmp
	list := t.intents[i]
	// Scan back to the latest plain insert or delete of k, collecting the
	// combining intents stacked above it.
	var combs []int
	base := -1
	for j := len(list) - 1; j >= 0; j-- {
		if cmp(list[j].key, k) != 0 {
			continue
		}
		if list[j].comb != nil {
			combs = append(combs, j)
			continue
		}
		base = j
		break
	}
	var v V
	var ok bool
	switch {
	case base >= 0 && list[base].del:
		// absent below the combs
	case base >= 0:
		v, ok = list[base].val, true
	case t.occ:
		v, ok = t.readTracked(i, k)
	default:
		v, ok = t.m.Get(k)
	}
	for j := len(combs) - 1; j >= 0; j-- { // chronological order
		in := list[combs[j]]
		if ok {
			v = in.comb(v, in.val)
		} else {
			v, ok = in.val, true
		}
	}
	return v, ok
}

// readTracked is the optimistic stable read: load k's version stripe (a
// stable word, waiting out in-flight writers and foreign install locks
// with bounded backoff), read the value, and accept only if the stripe did
// not move — so the recorded word names exactly the write-state the value
// came from.  The (shard, stripe, word) sample joins the transaction's
// read set for install-time validation.  The wait is bounded by commit
// brackets and install windows, which contain no user code — but a
// wholesale bracket (a SetRoot or table-scale batch commit on the read
// shard) marks every stripe for its whole commit, so a read colliding with
// one waits for that commit's Set; see the UpdateAtomicKeys contract.
func (t *Txn[K, V, A]) readTracked(i int, k K) (V, bool) {
	s := t.m.shards[i]
	stripe := s.KeyStripe(k)
	var v V
	var ok bool
	for n := 0; ; n++ {
		w := s.StableStripeWord(stripe)
		s.With(func(h *core.Handle[K, V, A]) {
			h.Read(func(sn core.Snapshot[K, V, A]) { v, ok = sn.Get(k) })
		})
		if s.StripeWord(stripe) == w {
			t.reads = append(t.reads, readSample{shard: i, stripe: stripe, word: w})
			return v, ok
		}
		core.Backoff(n)
	}
}

// validateReads re-loads every read sample's stripe and reports whether all
// still hold their recorded words.  Equality means no writer entered the
// stripe since the read — every sampled value is still current — so the
// caller may treat "now" as the moment all its reads happened at once.  On
// the stripes the transaction itself has install-locked (wstripes), and only
// those, the lock bit is masked before comparing — the caller's own lock is
// not a conflict, but a FOREIGN lock means another transaction is
// mid-install over the sampled key and the read must not survive validation.
func (t *Txn[K, V, A]) validateReads() bool {
	for _, r := range t.reads {
		w := t.m.shards[r.shard].StripeWord(r.stripe)
		if w&core.StripeLock != 0 && slices.Contains(t.wstripes[r.shard], r.stripe) {
			w &^= core.StripeLock
		}
		if w != r.word {
			return false
		}
	}
	return true
}

// replay applies a shard's buffered intents, in order, to a core write
// transaction.  A list of nothing but plain inserts — every redo record
// without a delete, so most of what recovery and a follower apply — goes
// down as one batch: InsertBatch's stable sort keeps the last write of a
// key, which is what applying them one by one leaves.
func replay[K, V, A any](tx *core.Txn[K, V, A], list []intent[K, V]) {
	if len(list) > 1 && !slices.ContainsFunc(list, func(in intent[K, V]) bool { return in.del || in.comb != nil }) {
		batch := make([]ftree.Entry[K, V], len(list))
		for i, in := range list {
			batch[i] = ftree.Entry[K, V]{Key: in.key, Val: in.val}
		}
		tx.InsertBatch(batch, nil)
		return
	}
	for _, in := range list {
		switch {
		case in.del:
			tx.Delete(in.key)
		case in.comb != nil:
			tx.InsertWith(in.key, in.val, in.comb)
		default:
			tx.Insert(in.key, in.val)
		}
	}
}

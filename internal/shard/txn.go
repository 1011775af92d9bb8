package shard

import (
	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// Txn buffers a cross-shard write transaction: Insert, InsertWith,
// InsertBatch and Delete record intents, and UpdateAtomic replays each
// shard's intents in order, every shard under one GSN.  Reads see the
// transaction's own buffered writes first — including deletes, so a
// get-after-delete inside the transaction reports absence — then the
// shard's current committed version.
type Txn[K, V, A any] struct {
	m       *Map[K, V, A]
	intents [][]intent[K, V]

	// fenced is non-nil only under UpdateAtomicKeys: fenced[i] marks shard i
	// as in the attempt's fence, whose writer slots the attempt holds, so
	// reads there are stable.  A read of a shard outside the fence adds it
	// for the next attempt and sets grew, which dooms this one.  One Txn
	// serves every attempt.
	fenced []bool
	grew   bool

	// Commit scratch, reused by every commit of this Txn (commit.go): the
	// shards with intents, whether each leg published, the shards that did,
	// the sequential legs' replay scratch and, by shard, the parallel legs'.
	write     []int
	changed   []bool
	published []int
	scratch   replayScratch[K, V]
	legs      []replayScratch[K, V]
}

// replayScratch is what replay gathers a run of deletes or of plain inserts
// into, reused from commit to commit.
type replayScratch[K, V any] struct {
	keys    []K
	entries []ftree.Entry[K, V]
}

// steadyIntents bounds what a pooled Txn keeps of a buffer a plan grew: a
// shard's intents, a replay scratch.  A buffer a bulk record grew past it
// is dropped with that record, not pooled.
const steadyIntents = 1024

func (m *Map[K, V, A]) newTxn() *Txn[K, V, A] {
	return &Txn[K, V, A]{m: m, intents: make([][]intent[K, V], len(m.shards))}
}

// getTxn leases a pooled Txn for a plan that is committed at once: a point
// write, a CommitEach run, a replayed record.
func (m *Map[K, V, A]) getTxn() *Txn[K, V, A] {
	if t, ok := m.txns.Get().(*Txn[K, V, A]); ok {
		return t
	}
	return m.newTxn()
}

// putTxn returns t to the pool holding no caller's key, value or comb, and
// no buffer grown past steadyIntents.
func (m *Map[K, V, A]) putTxn(t *Txn[K, V, A]) {
	for i, list := range t.intents {
		t.intents[i] = steady(list)
	}
	t.scratch.trim()
	for i := range t.legs {
		t.legs[i].trim()
	}
	m.txns.Put(t)
}

// steady empties s for reuse, or drops it if it grew past steadyIntents.
func steady[T any](s []T) []T {
	if cap(s) > steadyIntents {
		return nil
	}
	clear(s)
	return s[:0]
}

func (sc *replayScratch[K, V]) trim() {
	sc.keys, sc.entries = steady(sc.keys), steady(sc.entries)
}

// reset empties the plan for the next attempt (or the next record).
func (t *Txn[K, V, A]) reset() {
	for i := range t.intents {
		t.intents[i] = t.intents[i][:0]
	}
	t.grew = false
}

type intent[K, V any] struct {
	del   bool
	key   K
	val   V
	comb  func(old, new V) V  // non-nil: combine with the value below (InsertWith)
	batch []ftree.Entry[K, V] // non-nil: one InsertBatch of these entries, with comb
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

// InsertBatch buffers entries as InsertWith(e.Key, e.Val, comb) each, in
// order, but as one intent per shard, committed as ONE batched insert (the
// tree's multi-insert) instead of one insert per entry.  comb must be
// associative, as batch coalescing assumes (the entries of one key are
// folded together before they meet the value below); nil overwrites, the
// last entry of a key winning.  entries is copied, never reordered.
func (t *Txn[K, V, A]) InsertBatch(entries []ftree.Entry[K, V], comb func(old, new V) V) {
	parts := make([][]ftree.Entry[K, V], len(t.intents))
	for _, e := range entries {
		i := t.m.ShardFor(e.Key)
		parts[i] = append(parts[i], e)
	}
	for i, part := range parts {
		if len(part) > 0 {
			t.intents[i] = append(t.intents[i], intent[K, V]{comb: comb, batch: part})
		}
	}
}

// touched returns the indices of shards with at least one buffered intent,
// in ascending order (intents is indexed by shard), in the Txn's scratch.
func (t *Txn[K, V, A]) touched() []int {
	t.write = t.write[:0]
	for i, list := range t.intents {
		if len(list) > 0 {
			t.write = append(t.write, i)
		}
	}
	return t.write
}

// publishedLegs returns the shards of write whose legs changed, in the
// Txn's scratch.
func (t *Txn[K, V, A]) publishedLegs(write []int) []int {
	t.published = t.published[:0]
	for j, i := range write {
		if t.changed[j] {
			t.published = append(t.published, i)
		}
	}
	return t.published
}

// fence returns the indices of the fenced shards, in ascending order.
func (t *Txn[K, V, A]) fence() []int {
	var out []int
	for i, f := range t.fenced {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// Get reads through the transaction's buffered writes (latest intent for k
// wins; a buffered delete reports absence), falling back to a point read of
// k's shard's current version — under UpdateAtomicKeys, a read outside the
// fence dooms the attempt (see there).  Combining intents (InsertWith, a
// batch with a comb) are folded, in buffer order, on top of the latest
// authoritative value below them.
func (t *Txn[K, V, A]) Get(k K) (V, bool) {
	i := t.m.ShardFor(k)
	cmp := t.m.shards[i].Ops().Cmp
	list := t.intents[i]
	// Scan back to the latest plain insert or delete of k, a batch's entries
	// newest first, collecting the combining writes stacked above it.
	var combs []intent[K, V]
	var base intent[K, V]
	found := false
	visit := func(in intent[K, V]) {
		switch {
		case cmp(in.key, k) != 0:
		case in.comb != nil:
			combs = append(combs, in)
		default:
			base, found = in, true
		}
	}
	for j := len(list) - 1; j >= 0 && !found; j-- {
		in := list[j]
		if in.batch == nil {
			visit(in)
		}
		for b := len(in.batch) - 1; b >= 0 && !found; b-- {
			visit(intent[K, V]{key: in.batch[b].Key, val: in.batch[b].Val, comb: in.comb})
		}
	}
	var v V
	var ok bool
	switch {
	case found && base.del:
		// absent below the combs
	case found:
		v, ok = base.val, true
	default:
		if t.fenced != nil && !t.fenced[i] {
			t.fenced[i], t.grew = true, true
		}
		v, ok = t.m.get(i, k)
	}
	for j := len(combs) - 1; j >= 0; j-- { // chronological order
		if in := combs[j]; ok {
			v = in.comb(v, in.val)
		} else {
			v, ok = in.val, true
		}
	}
	return v, ok
}

// replay applies a shard's buffered intents, in order, to a core write
// transaction.  A run of two or more plain inserts — most of a redo record
// — goes down as one batch: InsertBatch's stable sort keeps the last write
// of a key, which is what applying them one by one leaves.  A run of
// deletes — an UpdateAtomic's, a wire run's — goes down as one multi-delete.
// Both runs are gathered into sc, which is reused.  A batch
// intent hands its entries to the tree's multi-insert and keeps the
// coalesced batch it returns, one entry per key, which is what
// encodeIntents logs.
func replay[K, V, A any](tx *core.Txn[K, V, A], list []intent[K, V], sc *replayScratch[K, V]) {
	plain := func(in intent[K, V]) bool { return !in.del && in.comb == nil && in.batch == nil }
	for j, n := 0, 0; j < len(list); j += n {
		in := &list[j]
		for n = 1; j+n < len(list) && (in.del && list[j+n].del || plain(*in) && plain(list[j+n])); n++ {
		}
		switch {
		case n > 1 && in.del:
			ks := sc.keys[:0]
			for _, d := range list[j : j+n] {
				ks = append(ks, d.key)
			}
			sc.keys = ks
			tx.DeleteBatch(ks)
			clear(ks) // the scratch keeps no key alive
		case n > 1:
			batch := sc.entries[:0]
			for _, p := range list[j : j+n] {
				batch = append(batch, ftree.Entry[K, V]{Key: p.key, Val: p.val})
			}
			sc.entries = batch
			tx.InsertBatch(batch, nil)
			clear(batch) // the scratch keeps no value alive
		case in.batch != nil:
			in.batch = tx.InsertBatch(in.batch, in.comb)
		case in.del:
			tx.Delete(in.key)
		case in.comb != nil:
			tx.InsertWith(in.key, in.val, in.comb)
		default:
			tx.Insert(in.key, in.val)
		}
	}
}

// legEntries counts the writes a shard's intents carry: one per intent, a
// batch's entries each.
func legEntries[K, V any](list []intent[K, V]) int {
	n := 0
	for _, in := range list {
		n += max(1, len(in.batch))
	}
	return n
}

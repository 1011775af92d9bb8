package shard

import (
	"slices"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// Txn buffers a cross-shard write transaction: Insert, InsertWith,
// InsertBatch and Delete record intents, and Update (per-shard atomic) or UpdateAtomic (globally atomic,
// one GSN) replays each shard's intents in order.  Reads see the
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
}

func (m *Map[K, V, A]) newTxn() *Txn[K, V, A] {
	return &Txn[K, V, A]{m: m, intents: make([][]intent[K, V], len(m.shards))}
}

// reset empties the plan for the next attempt (or the next record).
func (t *Txn[K, V, A]) reset() {
	for i := range t.intents {
		t.intents[i] = t.intents[i][:0]
	}
	t.grew = false
}

type intent[K, V any] struct {
	del  bool
	run  int32 // > 0: this intent and the run-1 after it are one InsertBatch
	key  K
	val  V
	comb func(old, new V) V // non-nil: combine with the value below (InsertWith)
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
// order, but commits each shard's share as ONE batched insert (the tree's
// multi-insert) instead of one insert per entry.  comb must be associative,
// as batch coalescing assumes (the entries of one key are folded together
// before they meet the value below); nil overwrites, the last entry of a key
// winning.
func (t *Txn[K, V, A]) InsertBatch(entries []ftree.Entry[K, V], comb func(old, new V) V) {
	start := make([]int, len(t.intents))
	for i, list := range t.intents {
		start[i] = len(list)
	}
	for _, e := range entries {
		i := t.m.ShardFor(e.Key)
		t.intents[i] = append(t.intents[i], intent[K, V]{key: e.Key, val: e.Val, comb: comb})
	}
	for i, list := range t.intents {
		if n := len(list) - start[i]; n > 0 {
			list[start[i]].run = int32(n)
		}
	}
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
// fence dooms the attempt (see there).  Combining intents (InsertWith) are
// folded, in buffer order, on top of the latest authoritative value below
// them.
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
	default:
		if t.fenced != nil && !t.fenced[i] {
			t.fenced[i], t.grew = true, true
		}
		v, ok = t.m.get(i, k)
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

// replay applies a shard's buffered intents, in order, to a core write
// transaction.  A list of nothing but plain inserts — every redo record
// without a delete, so most of what recovery and a follower apply — goes
// down as one batch: InsertBatch's stable sort keeps the last write of a
// key, which is what applying them one by one leaves.  So does each run a
// Txn.InsertBatch buffered, with its comb.
func replay[K, V, A any](tx *core.Txn[K, V, A], list []intent[K, V]) {
	if len(list) > 1 && !slices.ContainsFunc(list, func(in intent[K, V]) bool { return in.del || in.comb != nil }) {
		insertRun(tx, list, nil)
		return
	}
	for j := 0; j < len(list); j++ {
		switch in := list[j]; {
		case in.run > 0:
			insertRun(tx, list[j:j+int(in.run)], in.comb)
			j += int(in.run) - 1
		case in.del:
			tx.Delete(in.key)
		case in.comb != nil:
			tx.InsertWith(in.key, in.val, in.comb)
		default:
			tx.Insert(in.key, in.val)
		}
	}
}

// insertRun applies run's inserts as one batch.
func insertRun[K, V, A any](tx *core.Txn[K, V, A], run []intent[K, V], comb func(old, new V) V) {
	batch := make([]ftree.Entry[K, V], len(run))
	for i, in := range run {
		batch[i] = ftree.Entry[K, V]{Key: in.key, Val: in.val}
	}
	tx.InsertBatch(batch, comb)
}

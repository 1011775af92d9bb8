// The commit pipeline: every write entry point plans its intents, commits
// them through one of two primitives — commitShard (one shard) or
// commitAtomic (every write that spans shards, under one GSN) — and ends in
// groupCommit.  Both primitives hold the writer slot of every shard they
// write from before the Set until after the Append: the slot is the shard's
// one writer lock, so a shard has one writer at a time, as in the paper,
// and its log order is its commit order.  The lock order (writer slots
// ascending by shard → pid) and the logging rules (encode inside the
// committing transaction, apply then log, no record without a stamp, no
// lock held across the fsync wait) are written here once; DESIGN.md "The
// commit pipeline" states them in full.
package shard

import (
	"fmt"
	"slices"
	"sync"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// logErr is the head of every logged write: once the log is poisoned,
// writes are refused before they touch memory.  Nil without a log.
func (m *Map[K, V, A]) logErr() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.log.Err()
}

// groupCommit is the tail of every logged write, fed a primitive's result:
// one durability wait (per the log's fsync policy) up to mark, the log
// watermark of the last record the write appended — 0 when it appended
// none.  It waits for the write's own records, not for whatever other
// writers appended behind them.  Callers reach it holding no lock.
func (m *Map[K, V, A]) groupCommit(mark int64, err error) error {
	if err != nil || mark == 0 {
		return err
	}
	return m.wal.log.CommitTo(mark)
}

// commitShard is the single-shard primitive: under shard i's writer slot,
// apply commits as one write transaction on a pid leased for it; if it
// published a version, the commit is stamped with a fresh GSN and, only if
// a log is attached, the record encode produces is appended under that GSN
// before the slot is released.  encode runs inside the committing
// transaction, after apply, so combining writes log their resolved
// post-image.  It returns the appended record's log watermark, 0 when there
// was none; the caller owes the groupCommit.
func (m *Map[K, V, A]) commitShard(i int, apply func(tx *core.Txn[K, V, A]), encode func(e *walEnc[K, V], tx *core.Txn[K, V, A])) (mark int64, err error) {
	s := m.shards[i]
	s.LockWriterSlot()
	defer s.UnlockWriterSlot()
	var e *walEnc[K, V]
	if w := m.wal; w != nil {
		e = w.getEnc()
		defer w.putEnc(e)
	}
	changed := false
	s.With(func(h *core.Handle[K, V, A]) {
		h.Update(func(tx *core.Txn[K, V, A]) {
			apply(tx)
			if changed = tx.Changed(); changed && e != nil {
				encode(e, tx)
			}
		})
	})
	if !changed {
		return 0, nil
	}
	g := m.stamp(i)
	if e == nil {
		return 0, nil
	}
	return m.wal.log.AppendMark(g, e.buf)
}

// commitIntents is commitShard for a plan of buffered intents.
func (m *Map[K, V, A]) commitIntents(i int, list []intent[K, V]) (int64, error) {
	return m.commitShard(i,
		func(tx *core.Txn[K, V, A]) { replay(tx, list) },
		func(e *walEnc[K, V], tx *core.Txn[K, V, A]) { encodeIntents(e, tx, list) })
}

// commitAtomic is the multi-shard primitive: one attempt to install t's
// intents on every shard they touch under ONE GSN, logged as one record.
// It holds the writer slots of the shards in fence (ascending; a superset
// of those written) for the whole attempt — plan, install and Append — and
// releases them by defer, so a panic out of a user comb, which forfeits
// atomicity for the legs already installed, cannot wedge the fence.  With a
// nil plan t's intents are already buffered; a non-nil plan rebuilds them
// under the fence and may abandon the attempt by returning false (see
// UpdateAtomicKeys).  Inside, installAtomic drives the seqlocks odd, runs
// commitLegs — one commit per written shard, each that published encoding
// its post-images from inside that very transaction — and stamps the legs
// that published with one freshly drawn GSN, if there are any.  It reports
// whether the attempt committed and the appended record's log watermark (0
// when none); a non-nil error means the commit is in memory but the log is
// poisoned.
func (m *Map[K, V, A]) commitAtomic(fence []int, t *Txn[K, V, A], plan func(t *Txn[K, V, A]) bool) (committed bool, mark int64, err error) {
	m.lockSlots(fence)
	defer m.unlockSlots(fence)
	if plan != nil {
		t.reset()
		if !plan(t) {
			return false, 0, nil
		}
	}
	var e *walEnc[K, V]
	if w := m.wal; w != nil {
		e = w.getEnc()
		defer w.putEnc(e)
	}
	write := t.touched()
	g := m.installAtomic(write, func() []int { return m.commitLegs(write, t, e) })
	if e == nil || g == 0 {
		return true, 0, nil
	}
	mark, err = m.wal.log.AppendMark(g, e.buf)
	return true, mark, err
}

// parallelIngestFloor is the leg size from which an atomic commit runs its
// legs in parallel: at least two legs must carry this many entries.  A
// handful of entries is cheaper to commit inline than to spawn goroutines
// for, and a shorter install window means fewer ViewConsistent retries;
// large cross-shard batches (an inverted index ingesting documents) keep
// the S-way parallel commit that is the point of sharding.
const parallelIngestFloor = 64

// commitLegs commits t's intents on every shard in write (ascending), one
// write transaction per shard, encodes the post-images of each leg that
// published into e (nil without a log) in ascending shard order, and
// returns the shards whose legs published.  Legs run in parallel when at
// least two carry parallelIngestFloor entries or more, each encoding into
// its own pooled encoder; e is then their concatenation in shard order, the
// same bytes the sequential legs write.  A panic in any leg is re-raised
// here after every leg has returned.
func (m *Map[K, V, A]) commitLegs(write []int, t *Txn[K, V, A], e *walEnc[K, V]) (published []int) {
	changed := make([]bool, len(write))
	leg := func(j int, e *walEnc[K, V]) {
		list := t.intents[write[j]]
		m.shards[write[j]].With(func(h *core.Handle[K, V, A]) {
			h.Update(func(tx *core.Txn[K, V, A]) {
				replay(tx, list)
				if changed[j] = tx.Changed(); changed[j] && e != nil {
					encodeIntents(e, tx, list)
				}
			})
		})
	}
	big := 0
	for _, i := range write {
		if legEntries(t.intents[i]) >= parallelIngestFloor {
			big++
		}
	}
	if big < 2 {
		for j := range write {
			leg(j, e)
		}
	} else {
		encs := make([]*walEnc[K, V], len(write))
		panics := make([]any, len(write))
		var wg sync.WaitGroup
		for j := range write {
			if e != nil {
				encs[j] = m.wal.getEnc()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { panics[j] = recover() }()
				leg(j, encs[j])
			}()
		}
		wg.Wait()
		for _, le := range encs {
			if le != nil {
				e.buf = append(e.buf, le.buf...)
				m.wal.putEnc(le)
			}
		}
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
	for j, i := range write {
		if changed[j] {
			published = append(published, i)
		}
	}
	return published
}

// commitTxn commits t's buffered intents as one atomic transaction and
// returns its record's log watermark; the caller owes the groupCommit.  A
// single-shard footprint skips the seqlock protocol — one shard's commit is
// already atomic and its normal stamp orders it globally.
func (m *Map[K, V, A]) commitTxn(t *Txn[K, V, A]) (mark int64, err error) {
	touched := t.touched()
	if len(touched) == 0 {
		return 0, nil
	}
	if err := m.logErr(); err != nil {
		return 0, err
	}
	if len(touched) == 1 {
		i := touched[0]
		return m.commitIntents(i, t.intents[i])
	}
	_, mark, err = m.commitAtomic(touched, t, nil)
	return mark, err
}

// commitPoint commits one intent on its key's shard.
func (m *Map[K, V, A]) commitPoint(in intent[K, V]) error {
	i := m.ShardFor(in.key)
	if !m.enter(i) {
		return ErrClosed
	}
	defer m.exit(i)
	if err := m.logErr(); err != nil {
		return err
	}
	list := [1]intent[K, V]{in}
	return m.groupCommit(m.commitIntents(i, list[:]))
}

// Insert adds or replaces one entry in a single-shard write transaction.
// With a WAL attached the write is durable (per the log's fsync policy)
// when Insert returns nil; a non-nil error means the write must be treated
// as lost — ErrClosed before any effect, a log error after the log was
// poisoned (fail-fast: once the log errors, writes are refused before
// touching memory).
func (m *Map[K, V, A]) Insert(k K, v V) error {
	return m.commitPoint(intent[K, V]{key: k, val: v})
}

// InsertWith adds one entry, combining with any existing value.  The
// logged record carries the combined post-image, so replay never re-applies
// the delta.
func (m *Map[K, V, A]) InsertWith(k K, v V, comb func(old, new V) V) error {
	return m.commitPoint(intent[K, V]{key: k, val: v, comb: comb})
}

// Delete removes one entry in a single-shard write transaction.
func (m *Map[K, V, A]) Delete(k K) error {
	return m.commitPoint(intent[K, V]{del: true, key: k})
}

// InsertBatch commits entries as one atomic transaction: each shard's share
// is one batched insert, and all shards install under one GSN as one
// record; nil comb overwrites.  See Txn.InsertBatch.
func (m *Map[K, V, A]) InsertBatch(entries []ftree.Entry[K, V], comb func(old, new V) V) error {
	return m.UpdateAtomic(func(t *Txn[K, V, A]) { t.InsertBatch(entries, comb) })
}

// DeleteBatch removes keys as one atomic transaction: each shard's share is
// one multi-delete, and all shards install under one GSN as one record.
func (m *Map[K, V, A]) DeleteBatch(keys []K) error {
	return m.UpdateAtomic(func(t *Txn[K, V, A]) {
		for _, k := range keys {
			t.Delete(k)
		}
	})
}

// UpdateAtomic runs a buffered cross-shard write transaction with a global
// commit point: f records intents, then every affected shard's new root is
// installed under ONE global commit sequence number, so ViewConsistent
// never observes the transaction torn (plain View remains per-shard and
// may), and with a WAL attached it is ONE record — all or nothing at
// recovery too.  f runs before any writer slot is taken, so its reads may
// be overtaken by other writers before the install: racing writes on the
// same keys are blind last-writer-wins (use UpdateAtomicKeys to read-
// modify-write).
func (m *Map[K, V, A]) UpdateAtomic(f func(t *Txn[K, V, A])) error {
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	t := m.newTxn()
	f(t)
	return m.groupCommit(m.commitTxn(t))
}

// UpdateAtomicKeys runs an atomic cross-shard transaction whose key
// footprint is declared up front, under two-phase locking at shard
// granularity: the writer slots of the footprint's shards — the fence —
// are taken in ascending order before f runs and held until the last
// shard's root is published, and every writer takes its shard's slot, so
// nothing can commit on a fenced shard between f's reads and the install.
// A committed transaction is therefore a multi-key compare-and-swap,
// serializable against all writers.  f may WRITE only keys whose shards the
// footprint covers (a write outside it panics before anything is
// installed) and may READ any key: a read on a shard outside the fence
// dooms the attempt — f finishes, its intents are dropped, that shard joins
// the fence, and f runs again with the larger fence taken in ascending
// order.  So f may run more than once and must be a pure function of its
// reads, but at most once per shard it can add: with a non-empty footprint,
// at most S times per call.  OCCAborts counts the restarts.
func (m *Map[K, V, A]) UpdateAtomicKeys(keys []K, f func(t *Txn[K, V, A])) error {
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	t := m.newTxn()
	t.fenced = make([]bool, len(m.shards))
	for _, k := range keys {
		t.fenced[m.ShardFor(k)] = true
	}
	declared := slices.Clone(t.fenced)
	plan := func(t *Txn[K, V, A]) bool {
		f(t)
		for _, i := range t.touched() {
			if !declared[i] {
				panic(fmt.Sprintf("shard: UpdateAtomicKeys wrote shard %d outside the declared key footprint", i))
			}
		}
		return !t.grew
	}
	for {
		if err := m.logErr(); err != nil {
			return err
		}
		committed, mark, err := m.commitAtomic(t.fence(), t, plan)
		if committed {
			return m.groupCommit(mark, err)
		}
		m.occAborts.Add(1)
	}
}

// OCCAborts reports how many UpdateAtomicKeys attempts were restarted
// because f read a shard outside the attempt's fence, since the map was
// created.
func (m *Map[K, V, A]) OCCAborts() int64 { return m.occAborts.Load() }

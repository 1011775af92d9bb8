// The commit pipeline: every write entry point — point op, CommitEach run,
// UpdateAtomic, InsertBatch, UpdateAtomicKeys, a replayed record — plans
// its intents into a Txn, commits them through one primitive,
// commitAtomic, and ends in groupCommit.  commitAtomic holds the
// writer slot of every shard it writes from before the Set until after the
// Append, and (but for parallel legs) collects after releasing it, still on
// the pid it committed on: the slot is the shard's one writer lock, so a
// shard has one writer at a time, as in the paper, and its log order is its
// commit order.  The lock order (writer slots ascending by shard → pid) and
// the logging rules (encode inside the committing transaction, apply then
// log, no record without a stamp, no lock held across the fsync wait) are
// written here once; DESIGN.md "The commit pipeline" states them in full.
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

// commitAtomic is the commit primitive: one attempt to install t's
// intents on every shard they touch under ONE GSN, logged as one record.
// It holds the writer slots of the shards in fence (ascending; a superset
// of those written) from before the plan until after the Append — released
// by defer if a user comb panics, which forfeits atomicity for the legs
// already installed but cannot wedge the fence.  With a nil plan t's
// intents are already buffered and fence is the shards they touch; a
// non-nil plan rebuilds them under the fence and may abandon the attempt by
// returning false (see UpdateAtomicKeys).  Inside, openInstall drives the
// seqlocks odd when two or more shards are written, and commitLegs runs one
// commit per written shard, each that published encoding its post-images
// from inside that very transaction; once every leg has Set, the install's
// close stamps the legs that published with one freshly drawn GSN, if there
// are any, the record is appended and the slots are released.  Sequential
// legs collect after that; parallel legs have collected before
// (commitLegs).  A record that takes the log past its checkpoint bound
// starts a checkpoint (checkpointIfGrown).  It reports whether the attempt
// committed and the appended record's log watermark (0 when none); a
// non-nil error means the commit is in memory but the log is poisoned.
func (m *Map[K, V, A]) commitAtomic(fence []int, t *Txn[K, V, A], plan func(t *Txn[K, V, A]) bool) (committed bool, mark int64, err error) {
	m.lockSlots(fence)
	locked := true
	defer func() {
		if locked {
			m.unlockSlots(fence)
		}
	}()
	write := fence
	if plan != nil {
		t.reset()
		if !plan(t) {
			return false, 0, nil
		}
		write = t.touched()
	}
	var e *walEnc[K, V]
	if w := m.wal; w != nil {
		e = w.getEnc()
		defer w.putEnc(e)
	}
	in := m.openInstall(write)
	defer in.close(nil)
	m.commitLegs(write, t, e, func(published []int) {
		if g := in.close(published); e != nil && g != 0 {
			mark, err = m.wal.log.AppendMark(g, e.buf)
		}
		locked = false
		m.unlockSlots(fence)
	})
	m.checkpointIfGrown(mark)
	return true, mark, err
}

// commitHome commits t's intents on shard i alone: a point write or one
// shard's share of a CommitEach run.
func (m *Map[K, V, A]) commitHome(i int, t *Txn[K, V, A]) (int64, error) {
	home := [1]int{i}
	_, mark, err := m.commitAtomic(home[:], t, nil)
	return mark, err
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
// published into e (nil without a log) in ascending shard order, and once
// every leg has Set calls settle with the shards whose legs published.
// Sequential legs nest: each runs the next from between its Set and its
// collect, so their pids are taken in ascending shard order, as a View
// pins them, and every leg collects after settle returns.  Legs run in
// parallel when at least two carry parallelIngestFloor entries or more,
// each on its own goroutine, encoding into its own pooled encoder and
// collecting before that goroutine ends: a parallel leg holds its pid only
// for its own transaction and waits for no other leg, so its collect runs
// under the slots, before settle.  e is then their concatenation in shard
// order, the same bytes the sequential legs write.  A panic in any leg is
// re-raised here after every leg has returned, and settle is not called.
func (m *Map[K, V, A]) commitLegs(write []int, t *Txn[K, V, A], e *walEnc[K, V], settle func(published []int)) {
	t.changed = slices.Grow(t.changed[:0], len(write))[:len(write)] // each leg sets its own
	big := 0
	for _, i := range write {
		if legEntries(t.intents[i]) >= parallelIngestFloor {
			big++
		}
	}
	if big < 2 {
		m.nestLegs(0, write, t, e, settle)
		return
	}
	if t.legs == nil {
		t.legs = make([]replayScratch[K, V], len(t.intents))
	}
	encs := make([]*walEnc[K, V], len(write))
	panics := make([]any, len(write))
	var wg sync.WaitGroup
	for j, i := range write {
		if e != nil {
			encs[j] = m.wal.getEnc()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[j] = recover() }()
			m.commitLeg(i, t.intents[i], encs[j], &t.legs[i], &t.changed[j], func() {})
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
	settle(t.publishedLegs(write))
}

// nestLegs commits legs j.. of write in order, each from between the
// previous leg's Set and its collect, and calls settle from inside the
// last one.
func (m *Map[K, V, A]) nestLegs(j int, write []int, t *Txn[K, V, A], e *walEnc[K, V], settle func(published []int)) {
	if j == len(write) {
		settle(t.publishedLegs(write))
		return
	}
	i := write[j]
	m.commitLeg(i, t.intents[i], e, &t.scratch, &t.changed[j], func() { m.nestLegs(j+1, write, t, e, settle) })
}

// commitLeg runs list on shard i as one write transaction on a pid leased
// from that shard, whose writer slot the caller holds.  It records in
// *changed whether the transaction published and, if it did and e is
// non-nil, encodes the leg's record into e from inside it; sc is the
// leg's replay scratch.  then runs between the Set and the collect.  With
// the slot held no other writer commits on the shard, so the Set does not
// fail; the retry is core's contract, not a path this protocol takes
// (Aborts() stays 0).
func (m *Map[K, V, A]) commitLeg(i int, list []intent[K, V], e *walEnc[K, V], sc *replayScratch[K, V], changed *bool, then func()) {
	m.shards[i].With(func(h *core.Handle[K, V, A]) {
		for !h.TryUpdate(func(tx *core.Txn[K, V, A]) {
			replay(tx, list, sc)
			if *changed = tx.Changed(); *changed && e != nil {
				encodeIntents(e, tx, list)
			}
		}, then) {
		}
	})
}

// commitTxn commits t's buffered intents as one atomic transaction and
// returns its record's log watermark; the caller owes the groupCommit.
func (m *Map[K, V, A]) commitTxn(t *Txn[K, V, A]) (mark int64, err error) {
	touched := t.touched()
	if len(touched) == 0 {
		return 0, nil
	}
	if err := m.logErr(); err != nil {
		return 0, err
	}
	_, mark, err = m.commitAtomic(touched, t, nil)
	return mark, err
}

// commitPoint commits one intent on its key's shard, planned into a pooled
// Txn.
func (m *Map[K, V, A]) commitPoint(in intent[K, V]) error {
	i := m.ShardFor(in.key)
	if !m.enter(i) {
		return ErrClosed
	}
	defer m.exit(i)
	if err := m.logErr(); err != nil {
		return err
	}
	t := m.getTxn()
	t.intents[i] = append(t.intents[i], in)
	mark, err := m.commitHome(i, t)
	m.putTxn(t)
	return m.groupCommit(mark, err)
}

// CommitEach runs f, which plans a run of writes into t, and commits the
// run shard by shard in ascending order: each touched shard's share is one
// write transaction on that shard, one GSN and one record, its intents
// applied in f's order.  The shares are independent commits — a
// ViewConsistent may see one and not another — so a run is a sequence of
// point writes, batched, not an atomic transaction.  CommitEach does not
// wait for the log: it returns the highest log watermark the run appended
// (0 when none), and the caller makes the run durable with the log's
// CommitTo(mark) before it acknowledges any of it.  A non-nil error means
// the shares from the failing one on did not commit, or are not durable;
// the run must not be acknowledged.  f must not keep t.
func (m *Map[K, V, A]) CommitEach(f func(t *Txn[K, V, A])) (mark int64, err error) {
	if !m.enter(0) {
		return 0, ErrClosed
	}
	defer m.exit(0)
	t := m.getTxn()
	f(t)
	for i, list := range t.intents {
		if len(list) > 0 && err == nil {
			if err = m.logErr(); err == nil {
				var mk int64
				mk, err = m.commitHome(i, t)
				mark = max(mark, mk)
			}
		}
	}
	m.putTxn(t)
	return mark, err
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
		m.fenceRestarts.Add(1)
	}
}

// OCCAborts reports how many UpdateAtomicKeys attempts were restarted
// because f read a shard outside the attempt's fence — fence-growth
// restarts, since the map was created.  Nothing here is optimistic; the
// name stays while the benchmark ledger (benchmark/) calls it, and goes
// when the ledger is next changed.
func (m *Map[K, V, A]) OCCAborts() int64 { return m.fenceRestarts.Load() }

// The commit pipeline: every write entry point plans its intents, commits
// them through one of two primitives — commitShard (one shard) or
// commitAtomic (many shards, one GSN) — and ends in groupCommit.  The lock
// order (walMu → writer slots → pids → stripe locks, each ascending by
// shard) and the logging rules (encode inside the committing transaction,
// apply then log, no record without a stamp, walMu released before the
// fsync wait) are written here once; DESIGN.md "The commit pipeline" states
// them in full.
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

// install commits f as one write transaction on shard i — under the shard's
// writer slot when fenced — and returns the commit's GSN, 0 when it
// published nothing.
func (m *Map[K, V, A]) install(i int, fenced bool, f func(tx *core.Txn[K, V, A])) (g uint64) {
	s := m.shards[i]
	if fenced {
		s.LockWriterSlot()
		defer s.UnlockWriterSlot()
	}
	s.With(func(h *core.Handle[K, V, A]) {
		h.Update(f)
		g = h.LastStamp()
	})
	return g
}

// commitShard is the single-shard primitive: apply commits as one write
// transaction on shard i (see install) and, only if a log is attached, the
// record encode produces is appended under the commit's GSN.  walMu[i]
// spans {commit, Append} so the shard's log order is its commit order;
// encode runs inside the committing transaction, after apply, so combining
// writes log their resolved post-image.  It returns the appended record's
// log watermark, 0 when there was none; the caller owes the groupCommit.
func (m *Map[K, V, A]) commitShard(i int, fenced bool, apply func(tx *core.Txn[K, V, A]), encode func(e *walEnc[K, V], tx *core.Txn[K, V, A])) (mark int64, err error) {
	var e *walEnc[K, V]
	if w := m.wal; w != nil {
		e = w.getEnc()
		defer w.putEnc(e)
		m.walMu[i].Lock()
		defer m.walMu[i].Unlock()
	}
	g := m.install(i, fenced, func(tx *core.Txn[K, V, A]) {
		apply(tx)
		if e != nil {
			e.buf = e.buf[:0] // a conflict retry re-runs the encode
			encode(e, tx)
		}
	})
	if e == nil || g == 0 {
		return 0, nil
	}
	return m.wal.log.AppendMark(g, e.buf)
}

// commitIntents is commitShard for a plan of buffered intents.
func (m *Map[K, V, A]) commitIntents(i int, fenced bool, list []intent[K, V]) (int64, error) {
	return m.commitShard(i, fenced,
		func(tx *core.Txn[K, V, A]) { replay(tx, list) },
		func(e *walEnc[K, V], tx *core.Txn[K, V, A]) { encodeIntents(e, tx, list) })
}

// commitAtomic is the multi-shard primitive: one attempt to install t's
// intents on every shard they touch under ONE GSN, logged as one record.
// The shards in fence (ascending) are fenced for the attempt — walMu when a
// log is attached, held through the Append, then the writer slots, held
// through the install only.  With a nil plan t's intents are already
// buffered and the install is blind; a non-nil plan makes the attempt
// optimistic (see installAtomic).  It reports whether the attempt committed
// and the appended record's log watermark (0 when none); a non-nil error
// means the commit is in memory but the log is poisoned.
func (m *Map[K, V, A]) commitAtomic(fence []int, t *Txn[K, V, A], plan func(t *Txn[K, V, A])) (committed bool, mark int64, err error) {
	var e *walEnc[K, V]
	if w := m.wal; w != nil {
		e = w.getEnc()
		defer w.putEnc(e)
		for _, i := range fence {
			m.walMu[i].Lock()
		}
		defer func() {
			for j := len(fence) - 1; j >= 0; j-- {
				m.walMu[fence[j]].Unlock()
			}
		}()
	}
	g, ok := m.installAtomic(fence, t, plan, e)
	if e == nil || g == 0 {
		return ok, 0, nil
	}
	mark, err = m.wal.log.AppendMark(g, e.buf)
	return true, mark, err
}

// installAtomic is commitAtomic's in-memory half.  Under the fence shards'
// writer slots (released by defer, so a panic out of a user comb — which
// forfeits atomicity for the legs already installed — cannot wedge the
// fence) it runs plan, if any, leases one handle per written shard, and
// runs core.InstallAtomicValidated: seqlocks odd, validate, one unstamped
// commit per shard (encoding its post-images into e from inside that very
// transaction), one freshly allocated GSN published on all of them.
//
// An optimistic attempt (plan non-nil) resets t, runs plan against the
// fenced state, install-locks the write set's stripes and validates the
// read set before anything is published; a blind one validates nothing, so
// last-writer-wins races with point writers are its documented semantics
// and need no locks.  Ordering matters twice.  The handles are leased
// BEFORE the stripes are locked: a point writer stalled on an install lock
// sits inside its transaction holding a pid, so leasing afterwards could
// find every pid held by the very writers waiting on us.  (Leasing first
// is safe: locking a stripe of these shards requires the slots we hold.)
// And the stripes are locked BEFORE validation, which is what makes
// validate-then-install atomic against unfenced writers; see
// core.InstallAtomicValidated.  The stripe locks are released on every
// exit, aborts and panics included.
func (m *Map[K, V, A]) installAtomic(fence []int, t *Txn[K, V, A], plan func(t *Txn[K, V, A]), e *walEnc[K, V]) (gsn uint64, ok bool) {
	core.LockWriterSlots(m.shards, fence)
	defer core.UnlockWriterSlots(m.shards, fence)
	write := fence
	var validate func() bool
	if plan != nil {
		t.reset()
		plan(t)
		write = t.touched()
		for _, i := range write {
			if !slices.Contains(fence, i) {
				panic(fmt.Sprintf("shard: UpdateAtomicKeys wrote shard %d outside the declared key footprint", i))
			}
			for _, in := range t.intents[i] {
				t.wstripes[i] = append(t.wstripes[i], m.shards[i].KeyStripe(in.key))
			}
		}
		validate = func() bool {
			if !t.validateReads() {
				return false
			}
			if hook := m.testPostValidate; hook != nil {
				hook()
			}
			return true
		}
	}
	handles := make([]*core.Handle[K, V, A], len(write))
	var rec func(j int)
	rec = func(j int) {
		if j < len(write) {
			m.shards[write[j]].With(func(h *core.Handle[K, V, A]) {
				handles[j] = h
				rec(j + 1)
			})
			return
		}
		if plan != nil {
			for _, i := range write {
				m.shards[i].LockStripes(t.wstripes[i])
			}
			defer func() {
				for _, i := range write {
					m.shards[i].UnlockStripes(t.wstripes[i])
				}
			}()
		}
		gsn, ok = core.InstallAtomicValidated(m.shards, write, validate, func() {
			for j, i := range write {
				list, mark := t.intents[i], 0
				if e != nil {
					mark = len(e.buf) // where this shard's ops start in the shared record
				}
				handles[j].UpdateUnstamped(func(tx *core.Txn[K, V, A]) {
					// The replay writes exactly the stripes this install
					// locked (when it locked any); without the declaration
					// its commit bracket would stall on our own locks.
					tx.HoldsStripeLocks()
					replay(tx, list)
					if e != nil {
						e.buf = e.buf[:mark] // a conflict retry re-runs the encode
						encodeIntents(e, tx, list)
					}
				})
			}
		})
	}
	rec(0)
	return gsn, ok
}

// commitTxn commits t's buffered intents as one atomic transaction and
// returns its record's log watermark; the caller owes the groupCommit.  A
// single-shard footprint skips the seqlock protocol — one shard's commit is
// already atomic and its normal stamp orders it globally — but still
// commits under that shard's writer slot: an atomic transaction must never
// bypass another's fence, whatever its footprint.
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
		return m.commitIntents(i, true, t.intents[i])
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
	return m.groupCommit(m.commitIntents(i, false, list[:]))
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

// commitParts partitions items by their key's shard and commits each
// non-empty part as one write transaction, all shards in parallel, with one
// groupCommit for the whole fan-out.  apply returns the part as it wrote
// it, which is what encode logs and a conflict's re-run starts from.  The
// first error wins (sticky log errors make the rest fail identically
// anyway).
func commitParts[K, V, A, T any](m *Map[K, V, A], items []T, key func(T) K, apply func(tx *core.Txn[K, V, A], part []T) []T, encode func(e *walEnc[K, V], tx *core.Txn[K, V, A], part []T)) error {
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	if err := m.logErr(); err != nil {
		return err
	}
	parts := make([][]T, len(m.shards))
	for _, it := range items {
		i := m.ShardFor(key(it))
		parts[i] = append(parts[i], it)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(parts))
	marks := make([]int64, len(parts))
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, part []T) {
			defer wg.Done()
			marks[i], errs[i] = m.commitShard(i, false,
				func(tx *core.Txn[K, V, A]) { part = apply(tx, part) },
				func(e *walEnc[K, V], tx *core.Txn[K, V, A]) { encode(e, tx, part) })
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return m.groupCommit(slices.Max(marks), nil)
}

// InsertBatch partitions the batch by shard and commits each part as one
// atomic per-shard write transaction, all shards in parallel; nil comb
// overwrites.  Atomicity is per shard, not global.  With a WAL attached
// each shard's part is one record of post-images and one grouped fsync
// covers the batch.
func (m *Map[K, V, A]) InsertBatch(entries []ftree.Entry[K, V], comb func(old, new V) V) error {
	return commitParts(m, entries, func(en ftree.Entry[K, V]) K { return en.Key },
		func(tx *core.Txn[K, V, A], part []ftree.Entry[K, V]) []ftree.Entry[K, V] {
			return tx.InsertBatch(part, comb)
		},
		func(e *walEnc[K, V], tx *core.Txn[K, V, A], part []ftree.Entry[K, V]) {
			for _, en := range part {
				appendPost(e, tx, en.Key, en.Val, comb != nil)
			}
		})
}

// DeleteBatch removes keys, one atomic write transaction per affected
// shard, all shards in parallel; with a WAL attached, one record per shard
// and one grouped fsync.
func (m *Map[K, V, A]) DeleteBatch(keys []K) error {
	return commitParts(m, keys, func(k K) K { return k },
		func(tx *core.Txn[K, V, A], part []K) []K { tx.DeleteBatch(part); return part },
		func(e *walEnc[K, V], _ *core.Txn[K, V, A], part []K) {
			for _, k := range part {
				e.appendDelete(k)
			}
		})
}

// Update runs a buffered cross-shard write transaction in the fast
// per-shard mode: f records intents, then each affected shard commits its
// intents atomically (in ascending shard order).  Atomicity is per shard;
// there is no global commit point, and a concurrent View or ViewConsistent
// may observe some shards' commits and not others'.  Use UpdateAtomic when
// the transaction must never be seen torn.  With a WAL attached each
// shard's commit is one record and a single group fsync covers the whole
// transaction; durability (like atomicity) is per shard — a crash can
// persist some shards' legs and not others'.
func (m *Map[K, V, A]) Update(f func(t *Txn[K, V, A])) error {
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	t := m.newTxn()
	f(t)
	if err := m.logErr(); err != nil {
		return err
	}
	var mark int64
	for i, list := range t.intents {
		if len(list) == 0 {
			continue
		}
		mk, err := m.commitIntents(i, false, list)
		if err != nil {
			return err
		}
		mark = max(mark, mk)
	}
	return m.groupCommit(mark, nil)
}

// UpdateAtomic runs a buffered cross-shard write transaction with a global
// commit point: f records intents, then every affected shard's new root is
// installed under ONE global commit sequence number, so ViewConsistent
// never observes the transaction torn (plain View remains per-shard and
// may), and with a WAL attached it is ONE record — all or nothing at
// recovery too.  It validates nothing: racing point writers on the same
// keys are blind last-writer-wins (use UpdateAtomicKeys to read-modify-
// write).  It respects the writer-slot fence whatever its footprint.
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
// footprint is declared up front, as a full optimistic-concurrency
// transaction in the classic lock-write-set / validate-read-set / install
// shape: reads inside f (Txn.Get) are sampled against per-key version
// stripes; at install time the write set's stripes are install-locked
// FIRST, then — after the touched shards' install seqlocks go odd — every
// sampled stripe is revalidated; on any mismatch nothing is installed and
// the whole transaction retries (f runs again against the new state).  The
// locks are held until the last shard's root is published, and unfenced
// writers' commit brackets stall on them (core/keyver.go), so no point
// write can land on the write set between validation and publication — the
// window in which an absolute install would silently erase it.  A
// committed transaction is therefore a true multi-key compare-and-swap,
// serializable against ALL writers: other atomic transactions and the
// batch combiners are excluded by the writer slots (held while f runs, so
// they cannot move the read set at all), unfenced point writers on the
// read set are caught by validation and on the write set are held off by
// the locks, and two concurrent OCC transactions reading each other's
// write sets cannot both commit (lock-before-validate means one observes
// the other's lock and aborts — no write skew).  f may run several times
// and must be a pure function of its reads; it may READ any key on any
// shard (all reads are validated), but may WRITE only keys whose shards
// are covered by the declared footprint — a write outside it panics before
// anything is installed.
//
// Progress is optimistic: each abort implies a conflicting point write
// committed on a read key's stripe, so the system as a whole advances, but
// a transaction hammered by unfenced writers on its own read set retries
// unboundedly (OCCAborts counts these).  The fence is released and
// reacquired between attempts, with escalating bounded backoff, so an
// abort storm never starves the footprint shards' combiners or other
// atomic transactions.  Two waits are worth knowing about: an unfenced
// point write whose key shares a stripe with the write set stalls for the
// install window (bounded: validation plus the per-shard Sets, no user
// code), and a read colliding with a wholesale stripe bracket — a SetRoot
// or table-scale batch commit on the read shard marks every stripe — waits
// for that commit's Set.
func (m *Map[K, V, A]) UpdateAtomicKeys(keys []K, f func(t *Txn[K, V, A])) error {
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	fence := make([]int, len(keys))
	for j, k := range keys {
		fence[j] = m.ShardFor(k)
	}
	slices.Sort(fence)
	fence = slices.Compact(fence)
	t := m.newTxn()
	t.occ, t.wstripes = true, make([][]uint64, len(m.shards))
	for attempt := 0; ; attempt++ {
		if err := m.logErr(); err != nil {
			return err
		}
		committed, mark, err := m.commitAtomic(fence, t, f)
		if committed {
			return m.groupCommit(mark, err)
		}
		m.occAborts.Add(1)
		core.Backoff(attempt)
	}
}

// OCCAborts reports how many UpdateAtomicKeys attempts were aborted by
// install-time read validation (each implies an unfenced point writer
// committed on the transaction's read set) since the map was created.
func (m *Map[K, V, A]) OCCAborts() int64 { return m.occAborts.Load() }

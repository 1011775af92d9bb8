// WAL binding: the redo-log side of the commit pipeline (commit.go).
//
// The log (internal/wal) is a single GSN-keyed redo stream shared by all
// shards.  Records carry ABSOLUTE post-images (insert k=v / delete k), never
// deltas: a combining write is resolved to its final value at log time,
// inside the committing transaction, so replay is idempotent and a record
// buried under a later one is simply overwritten.  Why per-shard log order
// must equal per-shard commit order, and how the writer slot enforces it,
// is stated once in DESIGN.md "The commit pipeline".
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/wal"
)

// ErrClosed is returned by write operations that arrive after Close has
// begun; the map's shards and log are (or are about to be) torn down.
var ErrClosed = errors.New("shard: map is closed")

// WALConfig binds a redo log to a sharded map.  The codecs translate keys
// and values to and from the log's byte payloads; Enc* append to dst and
// return the extended slice (so warm encodes reuse pooled buffers), Dec*
// parse exactly the bytes Enc* produced.
type WALConfig[K, V any] struct {
	// Log is the open redo log; the map takes ownership (Close closes it).
	Log *wal.Log
	// EncKey / DecKey encode one key.
	EncKey func(dst []byte, k K) []byte
	DecKey func(b []byte) (K, error)
	// EncVal / DecVal encode one value.
	EncVal func(dst []byte, v V) []byte
	DecVal func(b []byte) (V, error)
	// CheckpointBytes, when positive, starts one background Checkpoint
	// whenever a commit's record takes the log's Appended this many bytes
	// past where it stood when the last checkpoint began (0 = only
	// explicit checkpoints).
	CheckpointBytes int64
}

func (c *WALConfig[K, V]) validate() error {
	switch {
	case c.Log == nil:
		return errors.New("shard: WALConfig.Log is required")
	case c.EncKey == nil || c.DecKey == nil:
		return errors.New("shard: WALConfig key codec is required")
	case c.EncVal == nil || c.DecVal == nil:
		return errors.New("shard: WALConfig value codec is required")
	}
	return nil
}

// Record payload op tags.  A record is a concatenation of ops, applied in
// order at replay; the snapshot payload reuses the same stream (inserts
// only), so one decoder serves both.
const (
	walOpInsert = 1
	walOpDelete = 2
)

// walEnc is a pooled encode buffer pair: buf accumulates the record, while
// scratch holds one key or value encode so its length can be written as a
// uvarint prefix before the bytes (codecs append open-endedly, so the
// length is only known after the fact).
type walEnc[K, V any] struct {
	cfg     *WALConfig[K, V]
	buf     []byte
	scratch []byte
}

type walBinding[K, V any] struct {
	log  *wal.Log
	cfg  WALConfig[K, V]
	encs sync.Pool // *walEnc[K, V]

	// ckptFrom is the log's Appended when the last successful checkpoint
	// began; ckptBusy keeps the growth-started checkpoints to one at a time.
	ckptFrom atomic.Int64
	ckptBusy atomic.Bool
}

// checkpoint installs payload as the log's snapshot cut at cut and, once
// it is durable, moves the growth baseline to from, the log's Appended
// when this checkpoint began.  A failed checkpoint leaves the baseline, so
// the next commit past the bound tries again.  The caller holds ckptMu.
func (w *walBinding[K, V]) checkpoint(from int64, cut uint64, payload []byte) error {
	if err := w.log.Checkpoint(cut, payload); err != nil {
		return err
	}
	w.ckptFrom.Store(from)
	return nil
}

func (w *walBinding[K, V]) getEnc() *walEnc[K, V] {
	if e, ok := w.encs.Get().(*walEnc[K, V]); ok {
		e.buf = e.buf[:0]
		return e
	}
	return &walEnc[K, V]{cfg: &w.cfg}
}

func (w *walBinding[K, V]) putEnc(e *walEnc[K, V]) { w.encs.Put(e) }

func (e *walEnc[K, V]) appendScratch() {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(e.scratch)))
	e.buf = append(e.buf, e.scratch...)
}

func (e *walEnc[K, V]) appendInsert(k K, v V) {
	e.buf = append(e.buf, walOpInsert)
	e.scratch = e.cfg.EncKey(e.scratch[:0], k)
	e.appendScratch()
	e.scratch = e.cfg.EncVal(e.scratch[:0], v)
	e.appendScratch()
}

func (e *walEnc[K, V]) appendDelete(k K) {
	e.buf = append(e.buf, walOpDelete)
	e.scratch = e.cfg.EncKey(e.scratch[:0], k)
	e.appendScratch()
}

// decodeWALOps walks one record (or snapshot) payload, calling ins/del per
// op in stream order.
func decodeWALOps[K, V any](cfg *WALConfig[K, V], p []byte, ins func(K, V), del func(K)) error {
	field := func() ([]byte, error) {
		n, w := binary.Uvarint(p)
		if w <= 0 || uint64(w)+n > uint64(len(p)) {
			return nil, errors.New("shard: wal payload truncated")
		}
		b := p[w : w+int(n)]
		p = p[w+int(n):]
		return b, nil
	}
	for len(p) > 0 {
		tag := p[0]
		p = p[1:]
		kb, err := field()
		if err != nil {
			return err
		}
		k, err := cfg.DecKey(kb)
		if err != nil {
			return fmt.Errorf("shard: wal key decode: %w", err)
		}
		switch tag {
		case walOpInsert:
			vb, err := field()
			if err != nil {
				return err
			}
			v, err := cfg.DecVal(vb)
			if err != nil {
				return fmt.Errorf("shard: wal value decode: %w", err)
			}
			ins(k, v)
		case walOpDelete:
			del(k)
		default:
			return fmt.Errorf("shard: wal payload has unknown op tag %d", tag)
		}
	}
	return nil
}

// loadSnapshot is the one place a checkpoint payload becomes map contents:
// recovery runs it on an empty map, a follower's bootstrap on the live one
// it serves reads from.  The payload (the state as of every commit stamped
// <= cut) is decoded straight into per-shard parts, each tree is built on
// its shard's unbound Ops with no lock held, and all S roots are published
// as ONE version under one GSN, which is returned.  What the map held is
// now the previous version, freed when its last reader leaves; nothing is
// logged.  The stamp source is first floored at cut-1, so a map that has not
// run ahead stamps the version cut.  Not concurrent with logged writes: a
// follower's only writer is its stream.  DESIGN.md, "A snapshot is a root".
func (m *Map[K, V, A]) loadSnapshot(cfg *WALConfig[K, V], cut uint64, payload []byte) (stamp uint64, err error) {
	parts := make([][]ftree.Entry[K, V], len(m.shards))
	err = decodeWALOps(cfg, payload, func(k K, v V) {
		i := m.ShardFor(k)
		parts[i] = append(parts[i], ftree.Entry[K, V]{Key: k, Val: v})
	}, func(K) {})
	if err != nil {
		return 0, err
	}
	all := make([]int, len(m.shards))
	roots := make([]*ftree.Node[K, V, A], len(m.shards))
	for i, s := range m.shards {
		all[i] = i
		roots[i] = s.Ops().MultiInsert(nil, parts[i], nil)
		parts[i] = nil
		// The builder's token: each install attempt is handed its own Share,
		// because a conflict retry releases what it was handed.
		defer s.Ops().Release(roots[i])
	}
	m.FloorGSN(max(cut, 1) - 1)
	m.lockSlots(all)
	defer m.unlockSlots(all)
	in := m.openInstall(all)
	defer in.close(nil)
	for i, s := range m.shards {
		s.With(func(h *core.Handle[K, V, A]) {
			h.Update(func(tx *core.Txn[K, V, A]) { tx.SetRoot(s.Ops().Share(roots[i])) })
		})
	}
	return in.close(all), nil
}

// WALStats exposes the attached log's counters (nil-safe: zero when no WAL).
func (m *Map[K, V, A]) WALStats() wal.Stats {
	if m.wal == nil {
		return wal.Stats{}
	}
	return m.wal.log.Stat()
}

// AttachWAL binds an open redo log to a fresh, empty map, first bringing
// back what wal.Open recovered from it (rec; nil for a new log): load the
// snapshot as one version (loadSnapshot), replay the records above its cut
// in GSN order (applyRecord), advance the stamp source past everything seen,
// and only then attach — so nothing recovery does is logged, and from here
// on every commit appends a record and acks per the log's fsync policy.
// A recovered log already CheckpointBytes long is checkpointed at once, in
// the background.  Call it after New, before any writes.
func (m *Map[K, V, A]) AttachWAL(cfg WALConfig[K, V], rec *wal.Recovered) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if m.wal != nil {
		return errors.New("shard: WAL already attached")
	}
	if rec == nil {
		rec = &wal.Recovered{}
	}
	if rec.Snapshot != nil {
		if _, err := m.loadSnapshot(&cfg, rec.SnapshotCut, rec.Snapshot); err != nil {
			return err
		}
	}
	t := m.newTxn()
	for _, r := range rec.Records {
		if err := m.applyRecord(&cfg, t, r.GSN, r.Payload); err != nil {
			return err
		}
	}
	// A snapshot-only recovery (no records) must still clear the
	// checkpoint cut.
	m.FloorGSN(max(rec.MaxGSN, rec.SnapshotCut))
	m.wal = &walBinding[K, V]{log: cfg.Log, cfg: cfg}
	if cfg.CheckpointBytes > 0 && cfg.Log.Stat().LiveBytes >= cfg.CheckpointBytes {
		m.startCheckpoint()
	}
	return nil
}

// applyRecord is the one redo-apply path, shared by recovery (AttachWAL)
// and replication (ReplayRecord): decode the record into t, then commit it
// as ONE atomic transaction, so a multi-shard record applies all-or-nothing
// exactly as it committed.  A decode error applies nothing.  The stamp
// source is floored at gsn-1 before the commit and at gsn after (which also
// covers records that publish nothing); floors never rewind.  So the commit
// is stamped gsn unless the source had already passed it: never at recovery,
// on a follower once the leader's log order and GSN order part (DESIGN.md
// "Replication").  The commit is relogged when a log is attached (a
// follower's) but not waited for: see ReplayRecord.
func (m *Map[K, V, A]) applyRecord(cfg *WALConfig[K, V], t *Txn[K, V, A], gsn uint64, payload []byte) error {
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	t.reset()
	if err := decodeWALOps(cfg, payload, t.Insert, t.Delete); err != nil {
		return fmt.Errorf("shard: applying record gsn=%d: %w", gsn, err)
	}
	if gsn > 0 {
		m.FloorGSN(gsn - 1)
	}
	if _, err := m.commitTxn(t); err != nil {
		return err
	}
	m.FloorGSN(gsn)
	return nil
}

// Checkpoint writes a consistent snapshot of the whole map to the log and
// retires every sealed segment the snapshot covers.  The cut is the GSN
// counter as read before the snapshot's first pin: a stamp is drawn only
// after its Set, so every commit stamped <= cut is in every pinned root —
// a shard that has never committed, or not lately, does not hold the cut
// back.  The snapshot rides ViewConsistent, whose seqlocks keep it
// tear-free; records above the cut are replayed over it at recovery, and
// absolute post-images make re-applying the overlap idempotent.  Concurrent
// calls are serialized; writers wait at most for the pins of a fenced
// ViewConsistent, never for the encode (the snapshot is a pinned immutable
// read).
func (m *Map[K, V, A]) Checkpoint() error {
	if m.wal == nil {
		return errors.New("shard: no WAL attached")
	}
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	w := m.wal
	// Deliberately NOT the pooled encoder: a checkpoint serializes the
	// whole map, and returning that buffer to the sync.Pool would park
	// database-sized capacity there indefinitely and hand it to point
	// writes.  Checkpoints are rare; a throwaway allocation is fine.
	e := &walEnc[K, V]{cfg: &w.cfg}
	from := w.log.Stat().Appended
	cut := m.gsn.Load()
	m.viewConsistent(func(s Snap[K, V, A]) {
		for i := range m.shards {
			s.Shard(i).ForEach(func(k K, v V) { e.appendInsert(k, v) })
		}
	})
	return w.checkpoint(from, cut, e.buf)
}

// checkpointIfGrown is the checkpoint trigger, run by every commit with
// its record's mark (0 when it appended none): once the log has grown
// CheckpointBytes past where the last checkpoint began, the commit starts
// the next one.  So the log's upkeep follows the work that creates it, and
// an idle log is never re-snapshotted.
func (m *Map[K, V, A]) checkpointIfGrown(mark int64) {
	if w := m.wal; w != nil && w.cfg.CheckpointBytes > 0 && mark-w.ckptFrom.Load() >= w.cfg.CheckpointBytes {
		m.startCheckpoint()
	}
}

// startCheckpoint runs one Checkpoint on its own goroutine unless a
// growth-started one is still running.  Checkpoint's close gate is what
// Close waits on; a goroutine that starts too late returns ErrClosed.
func (m *Map[K, V, A]) startCheckpoint() {
	w := m.wal
	if !w.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer w.ckptBusy.Store(false)
		m.Checkpoint() //nolint:errcheck // not sticky: the next commit past the bound retries
	}()
}

// appendPost logs an insert of k.  With resolve (a combining write) the
// value is k's post-image as the committing transaction sees it; v stands
// when the key is absent there — a later op of the same plan deleted it,
// and logs its own delete.
func appendPost[K, V, A any](e *walEnc[K, V], tx *core.Txn[K, V, A], k K, v V, resolve bool) {
	if resolve {
		if post, ok := tx.Get(k); ok {
			v = post
		}
	}
	e.appendInsert(k, v)
}

// encodeIntents appends one op per buffered intent, a batch's one per
// coalesced entry, in replay order (tx reads through the fully applied
// list, so a comb buried under later writes encodes the final value —
// overwritten at replay by the later ops' own encodes, exactly as in
// memory).
func encodeIntents[K, V, A any](e *walEnc[K, V], tx *core.Txn[K, V, A], list []intent[K, V]) {
	for _, in := range list {
		switch {
		case in.batch != nil:
			for _, en := range in.batch {
				appendPost(e, tx, en.Key, en.Val, in.comb != nil)
			}
		case in.del:
			e.appendDelete(in.key)
		default:
			appendPost(e, tx, in.key, in.val, in.comb != nil)
		}
	}
}

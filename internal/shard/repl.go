// Replication: the follower-side surface.  A follower receives the
// leader's redo stream — the exact framed records a Tailer lifts out of the
// leader's log, in log byte order — and applies each through ReplayRecord,
// i.e. through the same applyRecord recovery uses (wal.go).  Because
// records carry absolute post-images, replay is idempotent: re-applying a
// record, or applying one that a later record overwrites, converges to the
// same map; and because the follower has its own log attached, it relogs
// what it applies — a follower is itself recoverable and shippable.
package shard

import (
	"errors"

	"mvgc/internal/wal"
)

// FloorGSN raises the map's commit-sequence source to at least g; stamps
// handed out afterwards are strictly greater.  It never lowers it.
func (m *Map[K, V, A]) FloorGSN(g uint64) {
	for {
		cur := m.gsn.Load()
		if cur >= g || m.gsn.CompareAndSwap(cur, g) {
			return
		}
	}
}

// CommitGSN reports the highest commit sequence number allocated (or
// floored) so far.
func (m *Map[K, V, A]) CommitGSN() uint64 { return m.gsn.Load() }

// WAL returns the attached redo log, or nil when none is attached.
func (m *Map[K, V, A]) WAL() *wal.Log {
	if m.wal == nil {
		return nil
	}
	return m.wal.log
}

// SyncWAL forces the attached log's buffered records durable regardless
// of fsync policy (nil-safe no-op without a WAL).  Followers call it
// before persisting their replication watermark, so the watermark never
// claims records the local log could lose.
func (m *Map[K, V, A]) SyncWAL() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.log.Sync()
}

// ReplayRecord applies one shipped redo record stamped gsn as a single
// atomic transaction and floors the stamp source at gsn.  A decode error
// applies nothing.  Requires an attached WAL (for the codecs, and so the
// follower relogs what it applies).  It returns once the record is applied
// and appended to the local log, without waiting for that log's fsync: a
// follower acks nothing, so the apply of the next record overlaps this
// one's durability, and SyncWAL is the barrier — the follower calls it when
// it has applied everything it has received, and before it persists its
// position.
func (m *Map[K, V, A]) ReplayRecord(gsn uint64, payload []byte) error {
	if m.wal == nil {
		return errors.New("shard: ReplayRecord requires an attached WAL")
	}
	return m.applyRecord(&m.wal.cfg, m.newTxn(), gsn, payload)
}

// ApplyReplSnapshot replaces the map's contents with a shipped checkpoint
// snapshot (the leader's state as of every commit stamped <= cut) as one
// version: a reader sees the old contents or the new, never a mix.  Nothing
// is relogged; the payload becomes this map's OWN checkpoint, cut at the
// install's local stamp — the leader's cut can lie below stale local records
// (local stamps run ahead: applyRecord) that recovery would replay over it.
// ckptMu keeps a background Checkpoint of the older contents from landing
// after, and the growth baseline restarts here.  A failed load changes
// nothing.  DESIGN.md, "A snapshot is a root".
func (m *Map[K, V, A]) ApplyReplSnapshot(cut uint64, payload []byte) error {
	if m.wal == nil {
		return errors.New("shard: ApplyReplSnapshot requires an attached WAL")
	}
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	if err := m.logErr(); err != nil {
		return err
	}
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	from := m.wal.log.Stat().Appended
	stamp, err := m.loadSnapshot(&m.wal.cfg, cut, payload)
	if err != nil {
		return err
	}
	return m.wal.checkpoint(from, stamp, payload)
}

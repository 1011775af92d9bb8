// Replication: the follower-side surface.  A follower receives the
// leader's redo stream — the exact framed records a Tailer lifts out of the
// leader's log, in log byte order — and applies each through the Applier's
// ReplayRecord, i.e. through the same applyRecord recovery uses (wal.go).
// Because records carry absolute post-images, replay is idempotent:
// re-applying a record, or applying one that a later record overwrites,
// converges to the same map; and because the follower has its own log
// bound, it relogs what it applies — a follower is itself recoverable and
// shippable.
package shard

import (
	"errors"

	"mvgc/internal/repl"
	"mvgc/internal/wal"
)

// floorGSN raises the map's commit-sequence source to at least g; stamps
// handed out afterwards are strictly greater.  It never lowers it.
func (m *Map[K, V, A]) floorGSN(g uint64) {
	for {
		cur := m.gsn.Load()
		if cur >= g || m.gsn.CompareAndSwap(cur, g) {
			return
		}
	}
}

// CommitGSN reports the highest commit sequence number m has allocated (or
// floored) so far.
func CommitGSN[K, V, A any](m *Map[K, V, A]) uint64 { return m.gsn.Load() }

// WAL returns m's redo log, or nil when m was built without one.
func WAL[K, V, A any](m *Map[K, V, A]) *wal.Log {
	if m.wal == nil {
		return nil
	}
	return m.wal.log
}

// Applier hands out the replication apply surface of a logged map: a
// follower applies its leader's stream through it.  Its apply methods fail
// on a map built without a log, which has no codecs and could not relog.
func Applier[K, V, A any](m *Map[K, V, A]) repl.Applier { return applier[K, V, A]{m} }

type applier[K, V, A any] struct{ m *Map[K, V, A] }

var errNoLog = errors.New("shard: replication requires a logged map")

// SyncWAL forces the log's buffered records durable regardless of fsync
// policy (a no-op without a log).  Followers call it before persisting
// their replication watermark, so the watermark never claims records the
// local log could lose.
func (a applier[K, V, A]) SyncWAL() error {
	if a.m.wal == nil {
		return nil
	}
	return a.m.wal.log.Sync()
}

// ReplayRecord applies one shipped redo record stamped gsn as a single
// atomic transaction and floors the stamp source at gsn.  A decode error
// applies nothing.  It returns once the record is applied and appended to
// the local log, without waiting for that log's fsync: a follower acks
// nothing, so the apply of the next record overlaps this one's durability,
// and SyncWAL is the barrier — the follower calls it when it has applied
// everything it has received, and before it persists its position.  The
// record is planned into a pooled Txn, so a warm replay of a steady record
// allocates nothing.
func (a applier[K, V, A]) ReplayRecord(gsn uint64, payload []byte) error {
	m := a.m
	if m.wal == nil {
		return errNoLog
	}
	t := m.getTxn()
	err := m.applyRecord(&m.wal.cfg, t, gsn, payload)
	m.putTxn(t)
	return err
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
func (a applier[K, V, A]) ApplyReplSnapshot(cut uint64, payload []byte) error {
	m := a.m
	if m.wal == nil {
		return errNoLog
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

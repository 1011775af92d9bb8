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
	"fmt"

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

// replApplyChunk bounds one bootstrap transaction: large snapshots apply
// as a sequence of atomic chunks rather than one map-sized install.
const replApplyChunk = 1024

// ApplyReplSnapshot replaces the map's contents with a shipped checkpoint
// snapshot covering every commit with GSN <= cut, then floors the stamp
// source at cut.  Keys present locally but absent from the snapshot are
// deleted (a re-bootstrap after a partial tail must not leave them
// behind); matching keys are overwritten.  The apply is chunked, not
// atomic — callers run it before serving reads (bootstrap) where a
// mid-apply view is never handed out, and a crash mid-apply re-bootstraps
// from scratch.
func (m *Map[K, V, A]) ApplyReplSnapshot(cut uint64, payload []byte) error {
	if m.wal == nil {
		return errors.New("shard: ApplyReplSnapshot requires an attached WAL")
	}
	cfg := &m.wal.cfg
	entries, err := DecodeWALSnapshot(m.wal.cfg, payload)
	if err != nil {
		return fmt.Errorf("shard: decoding shipped snapshot cut=%d: %w", cut, err)
	}
	// K is not comparable in general; the encoded key bytes are the
	// identity the log itself uses.
	present := make(map[string]struct{}, len(entries))
	var kb []byte
	for _, e := range entries {
		kb = cfg.EncKey(kb[:0], e.Key)
		present[string(kb)] = struct{}{}
	}
	var stale []K
	m.ForEachChunked(replApplyChunk, func(k K, _ V) bool {
		kb = cfg.EncKey(kb[:0], k)
		if _, ok := present[string(kb)]; !ok {
			stale = append(stale, k)
		}
		return true
	})
	for start := 0; start < len(stale); start += replApplyChunk {
		chunk := stale[start:min(start+replApplyChunk, len(stale))]
		err := m.UpdateAtomic(func(t *Txn[K, V, A]) {
			for _, k := range chunk {
				t.Delete(k)
			}
		})
		if err != nil {
			return err
		}
	}
	for start := 0; start < len(entries); start += replApplyChunk {
		chunk := entries[start:min(start+replApplyChunk, len(entries))]
		err := m.UpdateAtomic(func(t *Txn[K, V, A]) {
			for _, e := range chunk {
				t.Insert(e.Key, e.Val)
			}
		})
		if err != nil {
			return err
		}
	}
	m.FloorGSN(cut)
	return nil
}

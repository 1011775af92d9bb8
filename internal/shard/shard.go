// Package shard hash-partitions the transactional map across S independent
// core.Map instances.  Each shard has its own Version Maintenance object,
// its own pid space and its own allocation accounting, so the paper's
// per-structure guarantees hold shard-locally: O(P) version delay, precise
// collection and Live() == 0 after Close apply to every shard on its own.
// Sharding multiplies write throughput — S writers commit in parallel
// instead of one — which is how follow-up work scales multiversion
// GC (Ben-David et al., DISC 2021; Wei & Fatourou 2022: partition version
// tracking, bound it per structure).
//
// # One write mode, two read modes
//
// Every write commits atomically: every touched shard's new root is
// installed under ONE global commit sequence number (GSN), logged as one
// record, so neither a consistent read nor recovery ever sees it torn.  A
// CommitEach run is a sequence of independent writes, not one write: each
// shard's share of it is its own commit.  A write that touches one shard is
// one write transaction there; one that spans shards — UpdateAtomic,
// UpdateAtomicKeys, InsertBatch — also holds per-shard install seqlocks odd
// while its legs install.
// UpdateAtomicKeys is two-phase locking on the writer slots: the
// footprint's slots are held from before the transaction's reads until its
// install, so a committed transaction is a multi-key compare-and-swap,
// serializable against all writers.
//
// Reads pick their mode.  View, the fast default, pins one version per
// shard — each a consistent, immutable snapshot, the paper's delay-free
// reader — at slightly different times, so it may see a multi-shard write
// on some shards and not others.  ViewConsistent double-collects the
// per-shard (latest-GSN, install-seq) vector around pinning, retrying until
// the seqlock vector is stable and falling back to briefly fencing the
// writer slots, and so never sees a write torn.  See the GSN notes in
// gsn.go and DESIGN.md.
//
// # One writer per shard
//
// Every commit on shard i — point op, a CommitEach run's share, atomic leg,
// replayed record — holds shard i's writer slot from before its Set until after its
// log Append, so each shard has exactly one writer at a time: the paper's
// single-writer setting, where a write transaction's delay is O(P) and its
// Set never fails.  Operations whose
// keys live on one shard (point reads, per-key updates, a Range that
// happens to hash into one shard) keep the paper's full guarantees in both
// read modes; single-shard commits carry GSN stamps too, so they order
// correctly under consistent views.
//
// No pid appears anywhere in this package's API: process identities are
// leased internally, one per transaction (core.Map.With — one CAS to take a
// pid, one to return it).  Each leased pid brings its own node arena
// (ftree.Arena), so a shard's write path also allocates lock-free:
// warm point updates touch no shared allocator state at all.  Multi-shard
// operations lease in ascending shard order, which makes blocking
// admission control deadlock-free (ordered resource acquisition).
//
// # One commit pipeline
//
// Every write — point op, batch, UpdateAtomic, UpdateAtomicKeys, a
// CommitEach run, a recovered or replicated redo record — is the paper's
// one transaction shape run through the same pipeline: plan intents →
// writer slots → install under a GSN → log → release → group fsync.
// commit.go holds its one primitive, commitAtomic, the only place that
// knows whether a redo log is attached; txn.go the plan (Txn, intents,
// fence growth); view.go the read side (View, ViewConsistent, Snap);
// scan.go ordered cross-shard reads; wal.go and repl.go the log binding:
// one applyRecord, one loadSnapshot, for recovery and replication.  The
// lock order and the commit invariants are stated once, in DESIGN.md "The
// commit pipeline".
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/wal"
)

// Config sizes a sharded map.
type Config[K any] struct {
	// Shards is the number of independent core.Map instances S.
	Shards int
	// Procs is the per-shard process count P: each shard admits up to P
	// concurrent transactions (leased handles) on its own VM instance.
	Procs int
	// Algorithm is the Version Maintenance algorithm every shard uses;
	// empty selects pswf.
	Algorithm string
	// Hash maps a key to the shard space; it must be deterministic.  The
	// shard index is Hash(k) % Shards.
	Hash func(K) uint64
}

// Map is a hash-sharded multiversion map: S independent core.Maps behind
// one pid-free, goroutine-safe API.
type Map[K, V, A any] struct {
	shards []*shardRec[K, V, A] // each a core.Map and its GSN words (gsn.go)
	hash   func(K) uint64

	// gsn is the global commit sequence source shared by every shard:
	// every commit that publishes draws one stamp from it, however many
	// shards it writes (gsn.go).
	gsn atomic.Uint64
	// maxCollects overrides consistentRetries when non-zero (tests force
	// the fence fallback with a small count and no stable window, or on
	// every call with a negative one).
	maxCollects int
	// snapRetries / fenced count ViewConsistent's failed double-collect
	// attempts and fence fallbacks, for tests and tuning.
	snapRetries atomic.Int64
	fenced      atomic.Int64
	// fenceRestarts counts UpdateAtomicKeys attempts restarted because f read
	// a shard outside the attempt's fence.
	fenceRestarts atomic.Int64

	// txns pools the Txns point writes plan into (commitPoint), so a warm
	// point write allocates none and reuses one hot on its own processor.
	txns sync.Pool

	// scans pools merge state for ordered cross-shard reads (see scan.go):
	// S reusable tree iterators plus the loser-tree array, leased per scan
	// so a warm fixed-length scan allocates nothing.
	scans sync.Pool

	// wal, when non-nil, is the attached redo log (wal.go); only the commit
	// primitive (commit.go) and the log binding consult it.
	wal    *walBinding[K, V]
	ckptMu sync.Mutex

	// closing/gates/closedCh make Close idempotent and safe against
	// in-flight operations: every front-door method passes an enter/exit
	// gate on its (first) shard, Close flips closing and waits for the
	// gates to drain before tearing anything down, and a second Close
	// blocks on closedCh until the first finishes.
	closing  atomic.Bool
	closedCh chan struct{}
	gates    []gate
}

// gate is a padded in-flight counter; one per shard so hot point ops on
// different shards never share a cache line.
type gate struct {
	n atomic.Int64
	_ [56]byte
}

// enter registers an in-flight operation against shard i's gate; false
// means the map is closing and the operation must not touch the shards.
// The increment is published before closing is checked, so Close's drain
// (which flips closing first, then scans the gates) cannot miss us.
func (m *Map[K, V, A]) enter(i int) bool {
	g := &m.gates[i]
	g.n.Add(1)
	if m.closing.Load() {
		g.n.Add(-1)
		return false
	}
	return true
}

func (m *Map[K, V, A]) exit(i int) { m.gates[i].n.Add(-1) }

// New builds a sharded map.  mkOps must return a fresh ftree.Ops per call:
// every shard gets its own, so allocation accounting (Ops().Live()) stays
// precise per shard.  initial is partitioned by hash across the shards.
//
// With w non-nil the map is logged: New takes ownership of w.Log (Close
// closes it, and so does a failed New) and first brings back rec, what
// wal.Open recovered from it (nil for a new log) — see recoverWAL.  When rec
// holds state, initial is ignored: the log is the source of truth.  On a
// fresh log a non-empty initial is checkpointed before New returns, so it is
// durable from the start.
func New[K, V, A any](cfg Config[K], mkOps func() *ftree.Ops[K, V, A], initial []ftree.Entry[K, V], w *WALConfig[K, V], rec *wal.Recovered) (*Map[K, V, A], error) {
	if w == nil {
		return newShards(cfg, mkOps, initial)
	}
	if rec != nil && (rec.Snapshot != nil || len(rec.Records) > 0) {
		initial = nil
	}
	m, err := newShards(cfg, mkOps, initial)
	if err == nil {
		err = m.recoverWAL(*w, rec)
		if err == nil && len(initial) > 0 {
			err = m.Checkpoint()
		}
		if err == nil {
			return m, nil
		}
		m.Close() //nolint:errcheck // err is the failure to report
	}
	if w.Log != nil {
		w.Log.Close() //nolint:errcheck // a no-op if m.Close closed it
	}
	return nil, err
}

// newShards is New without a log.
func newShards[K, V, A any](cfg Config[K], mkOps func() *ftree.Ops[K, V, A], initial []ftree.Entry[K, V]) (*Map[K, V, A], error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("shard: Shards must be positive, got %d", cfg.Shards)
	}
	if cfg.Hash == nil {
		return nil, fmt.Errorf("shard: Hash is required")
	}
	parts := make([][]ftree.Entry[K, V], cfg.Shards)
	for _, e := range initial {
		i := int(cfg.Hash(e.Key) % uint64(cfg.Shards))
		parts[i] = append(parts[i], e)
	}
	m := &Map[K, V, A]{
		hash:     cfg.Hash,
		gates:    make([]gate, cfg.Shards),
		closedCh: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		s, err := core.NewMap(core.Config{Algorithm: cfg.Algorithm, Procs: cfg.Procs}, mkOps(), parts[i])
		if err != nil {
			for _, prev := range m.shards {
				prev.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		m.shards = append(m.shards, &shardRec[K, V, A]{Map: s})
	}
	return m, nil
}

// NumShards returns S.
func (m *Map[K, V, A]) NumShards() int { return len(m.shards) }

// ShardFor returns the index of the shard owning key k.
func (m *Map[K, V, A]) ShardFor(k K) int { return int(m.hash(k) % uint64(len(m.shards))) }

// Shard exposes m's shard i, an underlying core.Map, for handle-based reads
// (long-lived workers that want to lease a per-shard identity once instead
// of per-op).  Its handles are for reads: a write through one would commit
// without the shard's writer slot, beside the one writer every Map write
// assumes, and without a GSN, so no consistent view or log would order it.
func Shard[K, V, A any](m *Map[K, V, A], i int) *core.Map[K, V, A] { return m.shards[i].Map }

// Get runs a point read as a delay-free read transaction on k's shard.
// After Close it reports absent.
func (m *Map[K, V, A]) Get(k K) (v V, ok bool) {
	i := m.ShardFor(k)
	if !m.enter(i) {
		return
	}
	defer m.exit(i)
	return m.get(i, k)
}

// get is Get on shard i without the close gate, for callers already past
// one (a transaction's reads).
func (m *Map[K, V, A]) get(i int, k K) (v V, ok bool) {
	m.shards[i].With(func(h *core.Handle[K, V, A]) {
		h.Read(func(s core.Snapshot[K, V, A]) { v, ok = s.Get(k) })
	})
	return
}

// getChunk is how many keys GetBatch partitions at a time.  The partition's
// scratch is arrays of this length on the calling goroutine's stack, so a
// batch of any length allocates nothing and shares nothing.
const getChunk = 64

// GetBatch looks keys[i] up into vals[i] and found[i] (both at least
// len(keys) long) as len(keys) calls of Get would, for the price of one
// read transaction per shard touched by each getChunk keys, not one per
// key: the keys are partitioned by shard, and each shard's share is read
// from one acquired version (core.Snapshot.GetBatch).  Like back-to-back
// Gets, keys of different shards are read at slightly different times —
// per-shard semantics — and every key is read from a version current at
// some moment during the call.  After Close it reports nothing found.
func (m *Map[K, V, A]) GetBatch(keys []K, vals []V, found []bool) {
	for len(keys) > getChunk {
		m.getBatchChunk(keys[:getChunk], vals, found)
		keys, vals, found = keys[getChunk:], vals[getChunk:], found[getChunk:]
	}
	m.getBatchChunk(keys, vals, found)
}

func (m *Map[K, V, A]) getBatchChunk(keys []K, vals []V, found []bool) {
	var (
		sh [getChunk]int32 // key j's shard; -1 once it has been looked up
		at [getChunk]uint8 // ks[g] is keys[at[g]]
		ks [getChunk]K     // one shard's share, gathered
		vs [getChunk]V
		fs [getChunk]bool
	)
	for j, k := range keys {
		sh[j] = int32(m.ShardFor(k))
	}
	for lo := range keys {
		s := sh[lo]
		if s < 0 {
			continue
		}
		n := 0
		for j := lo; j < len(keys); j++ {
			if sh[j] == s {
				sh[j], at[n], ks[n] = -1, uint8(j), keys[j]
				n++
			}
		}
		if m.enter(int(s)) {
			m.shards[s].With(func(h *core.Handle[K, V, A]) {
				h.Read(func(sn core.Snapshot[K, V, A]) { sn.GetBatch(ks[:n], vs[:n], fs[:n]) })
			})
			m.exit(int(s))
		} else {
			clear(vs[:n])
			clear(fs[:n])
		}
		for g := 0; g < n; g++ {
			vals[at[g]], found[at[g]] = vs[g], fs[g]
		}
	}
}

// Has reports whether k is present.
func (m *Map[K, V, A]) Has(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Len returns the total entry count.  Each shard is counted from its own
// consistent snapshot, but the snapshots are taken sequentially, so under
// concurrent writes the total is approximate (per-shard semantics).
func (m *Map[K, V, A]) Len() int64 {
	if !m.enter(0) {
		return 0
	}
	defer m.exit(0)
	var n int64
	for _, s := range m.shards {
		s.With(func(h *core.Handle[K, V, A]) {
			h.Read(func(sn core.Snapshot[K, V, A]) { n += sn.Len() })
		})
	}
	return n
}

// Commits sums committed write transactions across shards.
func (m *Map[K, V, A]) Commits() int64 {
	var n int64
	for _, s := range m.shards {
		n += s.Commits()
	}
	return n
}

// Aborts sums Set failures across shards: 0 while every write goes through
// the Map, whose writers take their shard's slot — a failure means something
// wrote through a handle of a raw Shard.
func (m *Map[K, V, A]) Aborts() int64 {
	var n int64
	for _, s := range m.shards {
		n += s.Aborts()
	}
	return n
}

// Uncollected sums the retained version counts across shards; each shard
// individually respects its algorithm's bound (e.g. 2P+1 for PSWF).
func (m *Map[K, V, A]) Uncollected() int {
	var n int
	for _, s := range m.shards {
		n += s.Uncollected()
	}
	return n
}

// Live sums allocated-minus-freed nodes across shard allocators; zero
// after Close when no nodes leaked anywhere.
func (m *Map[K, V, A]) Live() int64 {
	var n int64
	for _, s := range m.shards {
		n += s.Ops().Live()
	}
	return n
}

// Close closes the WAL (flushing and syncing its tail
// whatever the fsync policy, so everything acked — and everything
// committed — is on disk) and drains every shard.  It is idempotent and
// safe against concurrent operations: the first caller flips the closing
// flag, waits for every in-flight front-door operation to drain its gate,
// then tears down; operations arriving after the flip fail fast with
// ErrClosed (writes) or act as no-ops (reads); later Close calls block
// until the first finishes and return nil.  After Close, Live() reports
// leaked nodes across all shards.  The returned error is the WAL's close
// error, if any.
func (m *Map[K, V, A]) Close() error {
	if !m.closing.CompareAndSwap(false, true) {
		<-m.closedCh
		return nil
	}
	// Drain: every front-door method increments its gate before loading
	// closing, so once all gates read zero nothing is left inside and
	// nothing new can enter.
	for i := range m.gates {
		for m.gates[i].n.Load() != 0 {
			runtime.Gosched()
		}
	}
	var err error
	if m.wal != nil {
		err = m.wal.log.Close()
	}
	for _, s := range m.shards {
		s.Close()
	}
	close(m.closedCh)
	return err
}

package mvgc

import (
	"encoding/binary"
	"errors"
	"runtime"
	"unsafe"

	"mvgc/internal/ftree"
	"mvgc/internal/shard"
	"mvgc/internal/wal"
)

var errNilAugmenter = errors.New("mvgc: OpenDB requires an augmenter; use OpenPlainDB for unaugmented maps")

// ErrClosed is returned by writes that arrive after DB.Close has begun.
var ErrClosed = shard.ErrClosed

// DB is the goroutine-safe front door to a sharded multiversion map: no
// pid appears anywhere in its API.  Keys are hash-partitioned across S
// independent shards, each a full paper-faithful core.Map with its own
// Version Maintenance instance, O(P) delay bound and precise per-shard
// garbage collection.  Point operations (Get, Insert, InsertWith, Delete)
// keep the paper's guarantees in full; GetBatch is many Gets for one read
// transaction per shard touched.  A write that spans shards — UpdateAtomic,
// UpdateAtomicKeys, InsertBatch — always commits atomically:
// every touched shard installs under one global commit sequence number
// (GSN), as one log record, so no consistent read and no recovery sees it
// torn.  UpdateAtomicKeys also holds its key footprint's writer slots from
// before its reads until its install — a multi-key compare-and-swap,
// serializable against all writers (its callback runs again, at most once
// per shard, when it reads outside the footprint).  Reads come in two
// modes, and every call site picks one explicitly:
//
//   - Per-shard (View): the paper's delay-free reader, one pinned
//     snapshot per shard at slightly different instants, so a concurrent
//     reader can observe part of a multi-shard write.
//   - Consistent (ViewConsistent): a tear-free cut across the GSN stamps.
//
// Either snapshot streams in global key order through ScanFunc (from a
// key) and ForEachCond (from the start).
//
// Every write holds its shard's writer slot while it commits, so each shard
// has exactly one writer at a time, the paper's single-writer setting.
//
// Write methods return nil unless the database is closed (ErrClosed) or
// write-ahead logging is enabled and the log cannot persist the commit.
// DB is shard.Map under the front door's name; see the internal/shard
// package comment for the exact semantics.
//
//	db, _ := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{}, nil)
//	db.UpdateAtomic(func(t *mvgc.DBTxn[uint64, uint64, struct{}]) { t.Insert(1, 100) })
//	db.View(func(s mvgc.DBSnapshot[uint64, uint64, struct{}]) { s.Get(1) })
//	db.Close()
type DB[K, V, A any] = shard.Map[K, V, A]

// DBSnapshot is the fan-out read view passed to DB.View: one pinned
// immutable version per shard.
type DBSnapshot[K, V, A any] = shard.Snap[K, V, A]

// DBTxn is the buffered write transaction passed to DB.UpdateAtomic.
type DBTxn[K, V, A any] = shard.Txn[K, V, A]

// DBOptions configures OpenDB.  The zero value is usable for integer keys:
// it selects PSWF, GOMAXPROCS shards, GOMAXPROCS+1 processes per shard and
// a built-in hash.
type DBOptions[K any] struct {
	// Shards is the number of independent map instances S (default
	// GOMAXPROCS, floor 1).
	Shards int
	// Procs is the per-shard admission limit P: at most P concurrent
	// transactions per shard (default GOMAXPROCS+1, leaving room for the
	// shard's one writer next to GOMAXPROCS readers).
	Procs int
	// Algorithm is the Version Maintenance algorithm, one of vm.Names():
	// base, pswf, pslf, hp, epoch, rcu, sbgc (default pswf).
	Algorithm string
	// Hash maps keys to shards.  When nil, OpenDB falls back to a mixed
	// hash for integer and string keys and errors on other kinds.
	Hash func(K) uint64
	// Cmp is the key ordering.  When nil, OpenDB orders integer and string
	// keys by their own < — which the tree then compares directly rather
	// than through a function — and errors on other kinds.  A Cmp given
	// here is called for every comparison, whatever it computes.
	Cmp func(a, b K) int

	// WAL enables write-ahead logging when non-nil with a Dir: every
	// committed write is appended to a segmented redo log and fsynced per
	// the configured policy before the call returns, and OpenDB recovers
	// the newest checkpoint snapshot plus all logged records after a
	// crash.  Nil (the default) disables logging entirely — the database
	// is purely in-memory and writes never touch the disk.
	WAL *WALOptions
}

// WALOptions configures the durability subsystem: the redo log itself,
// and the checkpoints that keep it bounded.  A logged DB needs integer or
// string key AND value types: OpenDB derives the log's codecs from them.
type WALOptions struct {
	// Dir holds the log's segments and checkpoint snapshots.  Created if
	// missing; empty disables logging even when WALOptions is non-nil.
	Dir string
	// Fsync is the fsync policy: "always" (default — acked means
	// durable) or "off" (fsync only on checkpoint/close; a crash may
	// lose recently acked writes but never corrupts the log).
	Fsync string
	// SegmentBytes caps each log segment before rotation (default
	// 64 MiB, or a quarter of CheckpointBytes when that is set, at
	// least 4 KiB).
	SegmentBytes int64
	// MaxBytes fails writes with wal.ErrWALFull once live log bytes
	// exceed this bound, instead of filling the disk (0 = unbounded).
	// A checkpoint retires segments and makes room.
	MaxBytes int64
	// FS overrides the log's filesystem (tests inject wal.MemFS or
	// wal.FaultFS here; nil = the real disk).
	FS wal.FS
	// CheckpointBytes, when non-zero, checkpoints in the background each
	// time this many bytes have been appended since the last checkpoint
	// began: the database is snapshotted and the segments the snapshot
	// covers retire, keeping the log's live bytes (and the prefix a
	// replication follower must bootstrap) under 2x this value.  An idle
	// database is never re-snapshotted.
	CheckpointBytes int64
}

// dbGrain is every shard tree's parallel cutoff: a batch commit forks a step
// only when both halves exceed it, so batches up to twice dbGrain run on the
// committing goroutine; bulk loads and set operations above it fork halves.
const dbGrain = 1024

// OpenDB opens a sharded map with the given augmenter and initial
// contents; use OpenPlainDB for the common unaugmented case.
//
// With DBOptions.WAL.Dir set, OpenDB is also the recovery path: it loads
// the newest valid checkpoint snapshot, replays every durable record in
// global commit (GSN) order, truncates any torn tail left by a crash, and
// only then accepts writes — all before returning.  When the directory
// holds prior state the caller's initial entries are ignored (the log is
// the source of truth); on a fresh directory a non-empty initial is
// checkpointed immediately so it is durable from the start.
func OpenDB[K, V, A any](o DBOptions[K], aug Augmenter[K, V, A], initial []Entry[K, V]) (*DB[K, V, A], error) {
	if aug == nil {
		return nil, errNilAugmenter
	}
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
		if o.Shards < 1 {
			o.Shards = 1
		}
	}
	if o.Procs <= 0 {
		o.Procs = runtime.GOMAXPROCS(0) + 1
	}
	if o.Hash == nil {
		h, ok := autoHash[K]()
		if !ok {
			return nil, errors.New("mvgc: DBOptions.Hash is required for this key type")
		}
		o.Hash = h
	}
	// Each shard gets its own Ops family.  Without a caller's ordering the
	// keys are in their type's own order, which the tree compares directly
	// (ftree.NewNatural); a caller's Cmp is called, whatever it computes.
	cmp := o.Cmp
	newOps := func() *ftree.Ops[K, V, A] { return ftree.New(cmp, aug, dbGrain) }
	if cmp == nil {
		if _, ok := ftree.NewNatural(aug, dbGrain); !ok {
			return nil, errors.New("mvgc: DBOptions.Cmp is required for this key type")
		}
		newOps = func() *ftree.Ops[K, V, A] { ops, _ := ftree.NewNatural(aug, dbGrain); return ops }
	}
	var (
		wcfg *shard.WALConfig[K, V]
		rec  *wal.Recovered
	)
	if o.WAL != nil && o.WAL.Dir != "" {
		encK, decK, ok := autoCodec[K]()
		if !ok {
			return nil, errors.New("mvgc: WAL requires an integer or string key type")
		}
		encV, decV, ok := autoCodec[V]()
		if !ok {
			return nil, errors.New("mvgc: WAL requires an integer or string value type")
		}
		pol, err := wal.ParsePolicy(o.WAL.Fsync)
		if err != nil {
			return nil, err
		}
		seg := o.WAL.SegmentBytes
		if seg <= 0 && o.WAL.CheckpointBytes > 0 {
			// Only sealed segments retire: a segment a quarter of the bound
			// keeps the live log under 2x CheckpointBytes.
			seg = min(64<<20, max(o.WAL.CheckpointBytes/4, 4<<10))
		}
		var log *wal.Log
		log, rec, err = wal.Open(wal.Options{
			Dir: o.WAL.Dir, FS: o.WAL.FS,
			SegmentBytes: seg, MaxBytes: o.WAL.MaxBytes, Policy: pol,
		})
		if err != nil {
			return nil, err
		}
		wcfg = &shard.WALConfig[K, V]{
			Log: log, EncKey: encK, DecKey: decK, EncVal: encV, DecVal: decV,
			CheckpointBytes: o.WAL.CheckpointBytes,
		}
	}
	return shard.New(
		shard.Config[K]{Shards: o.Shards, Procs: o.Procs, Algorithm: o.Algorithm, Hash: o.Hash},
		newOps, initial, wcfg, rec,
	)
}

// OpenPlainDB opens an unaugmented sharded map — the common key-value
// store case.
func OpenPlainDB[K, V any](o DBOptions[K], initial []Entry[K, V]) (*DB[K, V, struct{}], error) {
	return OpenDB[K, V, struct{}](o, ftree.NoAug[K, V](), initial)
}

// autoHash returns a default shard hash for integer and string key types;
// ok is false for other kinds, where DBOptions.Hash is required.
func autoHash[K any]() (func(K) uint64, bool) {
	var zero K
	switch any(zero).(type) {
	case int:
		return func(k K) uint64 { return Mix64(uint64(any(k).(int))) }, true
	case int32:
		return func(k K) uint64 { return Mix64(uint64(any(k).(int32))) }, true
	case int64:
		return func(k K) uint64 { return Mix64(uint64(any(k).(int64))) }, true
	case uint:
		return func(k K) uint64 { return Mix64(uint64(any(k).(uint))) }, true
	case uint32:
		return func(k K) uint64 { return Mix64(uint64(any(k).(uint32))) }, true
	case uint64:
		return func(k K) uint64 { return Mix64(any(k).(uint64)) }, true
	case string:
		return func(k K) uint64 { return HashString(any(k).(string)) }, true
	}
	return nil, false
}

// autoCodec returns default WAL wire codecs for integer and string types
// (fixed 8-byte little-endian for integers, raw bytes for strings); ok is
// false for other kinds, which a logged DB cannot hold.  An integer encoder
// runs once per field of every record and checkpoint, so it reads the word
// straight out of t (word) and appends it: no interface conversion, no
// second call.
func autoCodec[T any]() (enc func(dst []byte, t T) []byte, dec func(b []byte) (T, error), ok bool) {
	errShort := errors.New("mvgc: WAL codec: truncated 8-byte integer")
	decU64 := func(b []byte) (uint64, error) {
		if len(b) != 8 {
			return 0, errShort
		}
		return binary.LittleEndian.Uint64(b), nil
	}
	le := binary.LittleEndian
	var zero T
	switch any(zero).(type) {
	case int:
		return func(dst []byte, t T) []byte { return le.AppendUint64(dst, uint64(word[int](t))) },
			func(b []byte) (T, error) { x, err := decU64(b); return any(int(x)).(T), err }, true
	case int32:
		return func(dst []byte, t T) []byte { return le.AppendUint64(dst, uint64(word[int32](t))) },
			func(b []byte) (T, error) { x, err := decU64(b); return any(int32(x)).(T), err }, true
	case int64:
		return func(dst []byte, t T) []byte { return le.AppendUint64(dst, uint64(word[int64](t))) },
			func(b []byte) (T, error) { x, err := decU64(b); return any(int64(x)).(T), err }, true
	case uint:
		return func(dst []byte, t T) []byte { return le.AppendUint64(dst, uint64(word[uint](t))) },
			func(b []byte) (T, error) { x, err := decU64(b); return any(uint(x)).(T), err }, true
	case uint32:
		return func(dst []byte, t T) []byte { return le.AppendUint64(dst, uint64(word[uint32](t))) },
			func(b []byte) (T, error) { x, err := decU64(b); return any(uint32(x)).(T), err }, true
	case uint64:
		return func(dst []byte, t T) []byte { return le.AppendUint64(dst, word[uint64](t)) },
			func(b []byte) (T, error) { x, err := decU64(b); return any(x).(T), err }, true
	case string:
		return func(dst []byte, t T) []byte { return append(dst, any(t).(string)...) },
			func(b []byte) (T, error) { return any(string(b)).(T), nil }, true
	}
	return nil, nil, false
}

// word reads t as I, the integer type autoCodec's switch has matched T to.
func word[I, T any](t T) I { return *(*I)(unsafe.Pointer(&t)) }

// Mix64 is SplitMix64's finalizer: a fast, well-distributed integer hash
// suitable for shard routing (sequential keys spread uniformly).
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString is FNV-1a, the default shard hash for string keys.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

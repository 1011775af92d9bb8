// Package mvgc is a multiversion concurrency system with bounded delay and
// precise garbage collection — a Go implementation of Ben-David, Blelloch,
// Sun and Wei (SPAA 2019).
//
// The package provides a transactional, multiversioned ordered map built
// from purely functional weight-balanced trees and a wait-free Version
// Maintenance algorithm:
//
//   - Read transactions are delay-free: they acquire a snapshot in O(1)
//     and run unmodified tree code against it, never blocking writers and
//     never blocked by them.
//   - A solo write transaction commits with O(P) delay.  The sharded DB
//     runs exactly one writer per shard at a time; the standalone map's
//     concurrent writers are lock-free (a failed commit implies another
//     writer succeeded).
//   - Garbage collection is precise: every version is collected the moment
//     its last transaction releases it, in time linear in the garbage.
//
// There are two entry points.  NewMap is the paper-faithful single
// structure (see examples/quickstart); goroutine-per-request servers that
// do not want to manage process ids should use OpenDB/OpenPlainDB, the
// sharded pid-free front door (cmd/mvgcd serves it over TCP).  The batching layer
// (Appendix F of the paper) lives in internal/batch, the sharding layer in
// internal/shard, alternative version-maintenance algorithms (hazard
// pointers, epochs, RCU) in internal/vm, and the evaluation harness in
// internal/experiments, whose paper rows are this package's benchmarks.
package mvgc

import (
	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// Map is a multiversion transactional ordered map; see core.Map.
type Map[K, V, A any] = core.Map[K, V, A]

// Snapshot is an immutable read view of one version.
type Snapshot[K, V, A any] = core.Snapshot[K, V, A]

// Txn is the handle write transactions mutate through.
type Txn[K, V, A any] = core.Txn[K, V, A]

// Handle is a leased process identity on a Map: it owns one of the map's P
// pids and forwards Read/Update to it.  Lease with the scoped Map.With (any
// short transaction) or Map.Handle (kept until Close); see core.Handle.
type Handle[K, V, A any] = core.Handle[K, V, A]

// Config selects the Version Maintenance algorithm ("pswf" by default)
// and the number of processes.  Node recycling through pid-local arenas
// is on by default; Config.NoRecycle is the ablation switch.  A Map has no
// commit stamps: the global commit sequence numbers behind consistent
// views and the redo log belong to the sharded DB (internal/shard).
type Config = core.Config

// Ops bundles ordering, augmentation and allocation accounting for a
// family of functional trees.
type Ops[K, V, A any] = ftree.Ops[K, V, A]

// Entry is a key-value pair for batch operations.
type Entry[K, V any] = ftree.Entry[K, V]

// Augmenter defines subtree augmentation; see ftree.Augmenter.  An
// augmenter may also implement
//
//	FoldRun(run []Entry[K, V]) A
//
// returning what Single and Combine fold a leaf's run to (Zero for the empty
// run); the tree then makes that one call per leaf instead of two per entry.
// SumAug and MaxAug do.  It is optional: without it nothing changes.
type Augmenter[K, V, A any] = ftree.Augmenter[K, V, A]

// NewOps returns tree operations for the given comparison and augmenter;
// grain is the parallel divide-and-conquer cutoff (0 = sequential).
func NewOps[K, V, A any](cmp func(a, b K) int, aug Augmenter[K, V, A], grain int) *Ops[K, V, A] {
	return ftree.New(cmp, aug, grain)
}

// NewMap creates a transactional multiversion map whose first version
// holds the given entries.
func NewMap[K, V, A any](cfg Config, ops *Ops[K, V, A], initial []Entry[K, V]) (*Map[K, V, A], error) {
	return core.NewMap(cfg, ops, initial)
}

// IntCmp is a ready-made three-way comparison for integer keys.
func IntCmp[T ~int | ~int32 | ~int64 | ~uint | ~uint32 | ~uint64](a, b T) int {
	return ftree.IntCmp(a, b)
}

// NoAug is the trivial augmenter for plain maps.
func NoAug[K, V any]() Augmenter[K, V, struct{}] { return ftree.NoAug[K, V]() }

// SumAug augments with the sum of int64 values (range-sum queries).
func SumAug[K any]() Augmenter[K, int64, int64] { return ftree.SumAug[K]() }

// MaxAug augments with the maximum int64 value (top-k queries).
func MaxAug[K any]() Augmenter[K, int64, int64] { return ftree.MaxAug[K]() }

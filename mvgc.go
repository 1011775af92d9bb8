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
//   - Each shard has one writer at a time, the paper's single-writer
//     setting: a write commits with O(P) delay.
//   - Garbage collection is precise: every version is collected the moment
//     its last transaction releases it, in time linear in the garbage.
//
// There is one entry point: OpenDB/OpenPlainDB open a DB, the sharded,
// pid-free store (cmd/mvgcd serves it over TCP).  The paper's single
// structure — one functional tree behind a Version Maintenance object,
// reached by process id — is internal/core (see examples/quickstart).  The
// batching layer (Appendix F of the paper) lives in internal/batch, the
// sharding layer in internal/shard, alternative version-maintenance
// algorithms (hazard pointers, epochs, RCU) in internal/vm, and the
// evaluation harness in internal/experiments, whose paper rows are this
// package's benchmarks.
package mvgc

import "mvgc/internal/ftree"

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

// NoAug is the trivial augmenter for plain maps.
func NoAug[K, V any]() Augmenter[K, V, struct{}] { return ftree.NoAug[K, V]() }

// SumAug augments with the sum of int64 values (range-sum queries).
func SumAug[K any]() Augmenter[K, int64, int64] { return ftree.SumAug[K]() }

// MaxAug augments with the maximum int64 value (top-k queries).
func MaxAug[K any]() Augmenter[K, int64, int64] { return ftree.MaxAug[K]() }

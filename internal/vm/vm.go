// Package vm implements the Version Maintenance (VM) problem from
// Ben-David, Blelloch, Sun and Wei, "Multiversion Concurrency with Bounded
// Delay and Precise Garbage Collection" (SPAA 2019), Section 3.
//
// A Version Maintenance object manages the handoff of immutable versions
// between one-or-more writers and any number of readers.  It supports three
// operations, all taking the identifier k of the calling process:
//
//   - Acquire(k) returns the current version and guarantees it cannot be
//     collected until the matching Release(k).
//   - Set(k, d) installs d as the new current version.  It may fail (return
//     false) only if another Set succeeded since this process's last Acquire.
//   - Release(k) declares the acquired version no longer needed and returns
//     the versions whose last user has now departed, so the caller can
//     collect them.  Maintainer spells it ReleaseInto(k, out): it appends
//     them to out, a buffer the caller reuses.
//
// The operations must be called in acquire → [set] → release order for each
// k, and no two operations with the same k may run concurrently.  A solution
// is precise when Release returns a version exactly at the moment it stops
// being live (Definition 3.2), which implies each Release returns at most
// one version.
//
// Six solutions match the paper's evaluation (Section 7.1), plus one from
// the follow-on space-bounded GC literature:
//
//	PSWF   precise, safe and wait-free (Algorithm 4, the paper's contribution)
//	PSLF   PSWF with Acquire and Set overridden to skip helping; precise
//	       and lock-free (Section 7.1)
//	HP     hazard-pointer based; safe but imprecise (Section 6)
//	Epoch  epoch based; safe but imprecise (Section 6)
//	RCU    read-copy-update based; precise but the writer blocks (Section 6)
//	Base   no maintenance at all; the no-VM baseline of Table 2
//	SBGC   timestamp-interval compaction; safe, imprecise, space-bounded
//	       under pinned readers (after arXiv 2108.02775 / 2212.13557)
package vm

// Maintainer is a solution to the Version Maintenance problem for versions
// of type *T.  Implementations must be safe for concurrent use by up to
// Procs processes, where process k only ever invokes operations with its own
// identifier and respects the acquire → [set] → release protocol order.
type Maintainer[T any] interface {
	// Acquire returns the current version and protects it from collection
	// until the next ReleaseInto(k, ...).  It never returns nil after the
	// object was initialized with a non-nil version.
	Acquire(k int) *T

	// Set installs data as the current version.  It returns false without
	// effect if a conflicting Set succeeded since this process's Acquire.
	Set(k int, data *T) bool

	// ReleaseInto ends this process's use of its acquired version and
	// appends the versions that may now be collected to out.  Precise
	// implementations append at most one version, and exactly when the
	// caller was its last user.  Imprecise implementations may append a
	// batch, or defer versions to a later release.  A caller that releases
	// on every transaction (the transaction layer's cleanup phase) reuses
	// one per-process buffer and keeps the commit path allocation-free;
	// ReleaseInto(k, nil) allocates a fresh slice only when it returns a
	// version.
	ReleaseInto(k int, out []*T) []*T

	// Procs reports the number of processes P the object was created for.
	Procs() int

	// Uncollected reports the number of versions currently retained by the
	// algorithm: the current version plus every version that has been
	// superseded but not yet handed back by a Release.  This is the
	// "number of live versions" metric of Table 2 and Figure 6.
	Uncollected() int

	// Drain returns every version still retained, exactly once, including
	// the current version.  It must only be called after all processes
	// have stopped (quiescence), and it leaves the object unusable.  It
	// exists so callers can hand the remaining versions to their collector
	// and verify precise end-of-run accounting.
	Drain() []*T

	// Name identifies the algorithm, e.g. "pswf" or "epoch".
	Name() string
}

// version is a packed (timestamp, index) pair as used by Algorithm 4.  The
// timestamp occupies the high bits and increases monotonically over the
// lifetime of a Maintainer; the index locates the version's slot in the
// status and data arrays.  The zero value is the paper's ⟨⊥,⊥⟩ sentinel:
// real versions always carry timestamp ≥ 1.
type version uint64

const (
	idxBits = 16
	idxMask = 1<<idxBits - 1
)

// MaxProcs is the largest process count any algorithm supports: the precise
// algorithms keep 3P+1 version slots and pack a slot index into idxBits
// bits, so 3P must not exceed idxMask.
const MaxProcs = idxMask / 3

func mkVersion(ts uint64, idx int) version {
	return version(ts<<idxBits | uint64(idx))
}

func (v version) ts() uint64 { return uint64(v) >> idxBits }
func (v version) idx() int   { return int(uint64(v) & idxMask) }

// Announcement words pack (version, help) with the help flag in bit 0, so
// the zero word is the empty announcement ⟨⊥, false⟩.
func annPack(v version, help bool) uint64 {
	w := uint64(v) << 1
	if help {
		w |= 1
	}
	return w
}

func annVer(w uint64) version { return version(w >> 1) }
func annHelp(w uint64) bool   { return w&1 != 0 }

// Status words pack (version, status) with the status in bits 0-1, so the
// zero word is the empty slot ⟨⊥, usable⟩ that Set scans for.
const (
	stUsable  = 0
	stPending = 1
	stFrozen  = 2
)

func stPack(v version, st uint64) uint64 { return uint64(v)<<2 | st }
func stVer(w uint64) version             { return version(w >> 2) }
func stStatus(w uint64) uint64           { return w & 3 }

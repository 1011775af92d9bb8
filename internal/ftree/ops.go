package ftree

import (
	"reflect"
	"strings"
)

// Augmenter computes the augmented value attached to every subtree, in the
// style of PAM's augmented maps: an associative Combine with identity Zero
// folded over the in-order sequence of Single(k, v) values.  Range-sum
// queries (Table 2's workload) use a sum augmenter; the inverted index uses
// a max-weight augmenter.
type Augmenter[K, V, A any] interface {
	// Zero is the augmented value of the empty tree.
	Zero() A
	// Single is the augmented value of a single entry.
	Single(k K, v V) A
	// Combine merges the augmented values of adjacent in-order ranges.
	// It must be associative with Zero as identity.
	Combine(a, b A) A
}

// runFolder is the optional bulk form of an Augmenter: an augmenter that
// also has
//
//	FoldRun(run []Entry[K, V]) A
//
// is handed a leaf's whole run (possibly empty) instead of one Single and
// one Combine call per entry.  FoldRun must return what that fold returns:
// Zero for the empty run, else Single of the entries Combined in order.
// SumAug and MaxAug have it; an augmenter without it loses nothing but the
// speed.
type runFolder[K, V, A any] interface {
	FoldRun(run []Entry[K, V]) A
}

// valFolder is an augmenter of this package whose Single reads only the
// value — SumAug — folding a narrow leaf's values (unit.go), which lie apart
// from its keys, in one call: what FoldRun returns for entries of those
// values.  The method is unexported, so no augmenter from outside the
// package has it and none has to promise that its Single ignores the key;
// any other augmenter folds a narrow leaf entry by entry.  Validate checks
// it against Single and Combine.
type valFolder[V, A any] interface {
	foldVals(vals []V) A
}

// Ops holds the comparison function, augmenter and allocation accounting
// for one family of trees.  All trees operated on by the same Ops family
// share its statistics.  Ops is safe for concurrent use.
//
// An Ops value is either the root returned by New, or an arena-bound view
// returned by Bound: a shallow copy that routes node allocation, collection
// and their accounting through a caller-owned Arena with no lock and no
// locked instruction (see arena.go).  Views share the root's depot, and the
// family sums every arena's counts with the root's, so Allocs/Frees/Live
// stay exact however allocation is routed (Allocs says when they may be
// read).  Construct Ops only through New or NewNatural; the zero value is
// unusable, and Cmp and Aug are read-only once constructed.
type Ops[K, V, A any] struct {
	// Cmp is a three-way comparison: negative if a<b, zero if equal.
	Cmp func(a, b K) int
	// Aug computes subtree augmentations; see Augmenter.
	Aug Augmenter[K, V, A]
	// Grain is the sequential cutoff for parallel divide-and-conquer, in
	// units of the work: MultiInsert and MultiDelete fork a step only when
	// both halves of the batch exceed Grain (the tree under a batch is
	// shared, not work), Build forks halves of more than Grain entries,
	// and the operations over two trees (Union, Intersect, Difference)
	// fork above Grain keys.
	// Zero means fully sequential.  DESIGN.md, "Parallel bulk operations".
	Grain int
	// NoSteal disables decompose's exclusive-node fast path (ablation).
	NoSteal bool
	// Recycle routes freed nodes and leaf units back to the next mk —
	// through the bound Arena's magazines when one is attached, through the
	// sharded depot otherwise — making the collector's "free instruction"
	// literal (the paper's C++ implementation reuses version memory the
	// same way).  Safe because precise GC guarantees a freed node is
	// reachable from no live version.  core.NewMap turns this on by
	// default; BenchmarkAblationRecycle quantifies the difference.
	Recycle bool

	// RetainVal and ReleaseVal make values themselves reference-counted
	// resources (e.g. inner trees of a nested map, as in the paper's
	// inverted index §7.2).  When set, the tree operations call RetainVal
	// every time they copy a value out of a node or leaf that stays alive,
	// and ReleaseVal for every value of a node or leaf that is freed or
	// that a bulk operation drops.  Ownership contract: every value passed into an
	// operation (Insert's v, batch entries, combine results) is an owned
	// reference that the tree consumes; combine functions receive two
	// owned references and must return an owned reference.  Leave both nil
	// for plain values.
	RetainVal  func(V) V
	ReleaseVal func(V)

	// sh is the allocation state shared by the root Ops and every bound
	// view: statistics plus the depots that magazines spill to and refill
	// from.  Set by New.
	sh *allocShared[K, V, A]
	// arena is the pid-local magazines this view allocates through; nil on
	// the root Ops (the depot, with per-shard locking).
	arena *Arena[K, V, A]
	// root points back at the unbound Ops a view was Bound from; nil on
	// the root itself.  Forked goroutines get the root (Unbound) so a
	// single-owner arena is never touched from two goroutines.
	root *Ops[K, V, A]

	// typed is the leaf kernels compiled for K's own order (kernels.go):
	// the key-kind tag.  Only NewNatural sets it, together with the Cmp of
	// the same order, so the two cannot disagree; it is nil on an Ops from
	// New, whose ordering is whatever the caller's Cmp says.
	typed *kernels[K, V]
	// narrows says a leaf whose keys span less than 1<<16 is narrow
	// (narrowFor): typed is set for an integer K, and the narrow unit is the
	// smaller.
	narrows bool
	// bulk is Aug when Aug can fold a whole run in one call, else nil;
	// vals is Aug when it can fold a narrow leaf's values so.
	bulk runFolder[K, V, A]
	vals valFolder[V, A]
	// plainLeaves says neither K nor V can hold a pointer, so a freed leaf
	// unit's run pins nothing and is parked as it is (freeNode).
	plainLeaves bool
}

// retainVal duplicates a value reference when values are refcounted.
func (o *Ops[K, V, A]) retainVal(v V) V {
	if o.RetainVal != nil {
		return o.RetainVal(v)
	}
	return v
}

// releaseVal drops an owned value reference.
func (o *Ops[K, V, A]) releaseVal(v V) {
	if o.ReleaseVal != nil {
		o.ReleaseVal(v)
	}
}

// New returns an Ops for the given comparison and augmenter with parallel
// grain g.  The tree orders keys by calling cmp, whatever cmp is; for a key
// type's own order NewNatural compares keys directly.
func New[K, V, A any](cmp func(a, b K) int, aug Augmenter[K, V, A], g int) *Ops[K, V, A] {
	if !unitFitsNode[K, V, A]() {
		panic("ftree: a leaf unit of this key and value is smaller than a node")
	}
	o := &Ops[K, V, A]{Cmp: cmp, Aug: aug, Grain: g, sh: newAllocShared[K, V, A]()}
	o.bulk, _ = aug.(runFolder[K, V, A])
	o.vals, _ = aug.(valFolder[V, A])
	o.plainLeaves = pointerFree(reflect.TypeFor[Entry[K, V]]())
	return o
}

// NewNatural returns an Ops that orders keys by K's own < — K one of int,
// int32, int64, uint, uint32, uint64 or string, exactly; ok is false for
// any other K.  It is New with Cmp set to that order and, for the integer
// kinds, with leaf kernels (search, the batch sort) that compare keys
// directly instead of through Cmp, and with narrow leaves (unit.go).  There
// is no way to have the kernels with another ordering.  A string comparison
// follows a pointer and is a call however it is made, so string keys are
// compared through Cmp.
func NewNatural[K, V, A any](aug Augmenter[K, V, A], g int) (o *Ops[K, V, A], ok bool) {
	var zero K
	switch any(zero).(type) {
	case int:
		return natural[int, K](IntCmp[int], aug, g), true
	case int32:
		return natural[int32, K](IntCmp[int32], aug, g), true
	case int64:
		return natural[int64, K](IntCmp[int64], aug, g), true
	case uint:
		return natural[uint, K](IntCmp[uint], aug, g), true
	case uint32:
		return natural[uint32, K](IntCmp[uint32], aug, g), true
	case uint64:
		return natural[uint64, K](IntCmp[uint64], aug, g), true
	case string:
		return New(any(strings.Compare).(func(a, b K) int), aug, g), true
	}
	return nil, false
}

// natural is NewNatural for an integer K, which the caller knows to be T:
// cmp, which computes T's own order, and the kernels compiled for it, set
// together.
func natural[T integer, K, V, A any](cmp func(a, b T) int, aug Augmenter[K, V, A], g int) *Ops[K, V, A] {
	o := New(any(cmp).(func(a, b K) int), aug, g)
	o.typed = any(&kernels[T, V]{search: searchOrdered[T, V], sort: sortOrdered[T, V], searchNarrow: searchNarrow[T]}).(*kernels[K, V])
	o.narrows = narrowPays[K, V, A]()
	return o
}

// integer is the key types with kernels: their own order, and narrow leaves.
type integer interface {
	~int | ~int32 | ~int64 | ~uint | ~uint32 | ~uint64
}

// pointerFree reports whether no value of type t holds a pointer.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// Bound returns a view of o whose allocations and frees go through arena a,
// and are counted there, with no locks or atomics: the fast path for a
// process that owns a (see Arena).  The view shares o's depot, and
// captures o's configuration at call time.  Like the arena itself, the
// view's mutating operations must not run concurrently with each other;
// read-only operations (Find, ForEach, AugRange, ...) touch no allocator
// state and stay safe from any goroutine.
func (o *Ops[K, V, A]) Bound(a *Arena[K, V, A]) *Ops[K, V, A] {
	if a != nil && a.nodes.d != &o.sh.nodes {
		panic("ftree: Bound with an arena from a different Ops family")
	}
	root := o
	if o.root != nil {
		root = o.root
	}
	v := *root
	v.arena = a
	v.root = root
	return &v
}

// Unbound returns the root Ops a view was Bound from (o itself when o is
// already the root).  Parallel forks allocate through it so a single-owner
// arena never crosses goroutines.
func (o *Ops[K, V, A]) Unbound() *Ops[K, V, A] {
	if o.root != nil {
		return o.root
	}
	return o
}

// Entry is a key-value pair, used by batch operations and iteration.
type Entry[K, V any] struct {
	Key K
	Val V
}

// noAug is the trivial augmenter for plain maps.
type noAug[K, V any] struct{}

func (noAug[K, V]) Zero() struct{}                 { return struct{}{} }
func (noAug[K, V]) Single(K, V) struct{}           { return struct{}{} }
func (noAug[K, V]) Combine(_, _ struct{}) struct{} { return struct{}{} }

// NoAug returns the trivial augmenter for plain (unaugmented) maps.
func NoAug[K, V any]() Augmenter[K, V, struct{}] { return noAug[K, V]{} }

// sumAug augments with the sum of values, for range-sum queries.
type sumAug[K any] struct{}

func (sumAug[K]) Zero() int64               { return 0 }
func (sumAug[K]) Single(_ K, v int64) int64 { return v }
func (sumAug[K]) Combine(a, b int64) int64  { return a + b }
func (sumAug[K]) FoldRun(run []Entry[K, int64]) (s int64) {
	for _, e := range run {
		s += e.Val
	}
	return s
}
func (sumAug[K]) foldVals(vals []int64) (s int64) {
	for _, v := range vals {
		s += v
	}
	return s
}

// SumAug returns an augmenter computing the sum of int64 values; this is
// the augmentation used for the paper's range-sum query workload (§7.1).
func SumAug[K any]() Augmenter[K, int64, int64] { return sumAug[K]{} }

// maxAug augments with the maximum value, as in the inverted index's
// max-weight-in-subtree augmentation (§7.2).
type maxAug[K any] struct{}

func (maxAug[K]) Zero() int64               { return -1 << 62 }
func (maxAug[K]) Single(_ K, v int64) int64 { return v }
func (maxAug[K]) Combine(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
func (m maxAug[K]) FoldRun(run []Entry[K, int64]) int64 {
	if len(run) == 0 {
		return m.Zero()
	}
	a := run[0].Val
	for _, e := range run[1:] {
		a = max(a, e.Val)
	}
	return a
}

// MaxAug returns an augmenter computing the maximum int64 value in a
// subtree.
func MaxAug[K any]() Augmenter[K, int64, int64] { return maxAug[K]{} }

// IntCmp is a three-way comparison for any ordered integer type.
func IntCmp[T ~int | ~int32 | ~int64 | ~uint | ~uint32 | ~uint64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

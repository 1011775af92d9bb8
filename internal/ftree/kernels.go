package ftree

import "cmp"

// kernels are the base cases that compare keys, compiled for one integer key
// type's own order: the same results as the bodies that go through Ops.Cmp
// (searchCmp, sortStable), with the comparison a machine instruction
// instead of a call through a func value.  An Ops has them or not for good
// (Ops.typed, set by natural).
type kernels[K, V any] struct {
	// search is Ops.search.
	search func(run []Entry[K, V], k K) (i int, found bool)
	// sort sorts a batch by key, stably, through buf; see sortOrdered.
	sort func(batch, buf []Entry[K, V]) []Entry[K, V]
	// searchNarrow is search over a narrow leaf's offsets from base.
	searchNarrow func(base K, off []uint16, k K) (i int, found bool)
}

// searchOrdered is search without a data-dependent branch.  Down to
// searchWindow entries it is a lower-bound halving in which the comparison's
// outcome is added, not jumped on.  (An `if less { base += half }` would do,
// were it compiled to a conditional move; the compiler does not speculate a
// value that feeds a load address.)  The last searchWindow entries are
// counted, not halved: first every fourth key, loads that depend on nothing
// and so miss together when the run is cold — a halving's five would miss
// one after another, with no branch to speculate past — then the three keys
// between two of those.
func searchOrdered[K cmp.Ordered, V any](run []Entry[K, V], k K) (int, bool) {
	// The position lies in [base, base+n].
	base, n := 0, len(run)
	for n > searchWindow {
		half := (n + 1) >> 1
		base += half & -less(run[base+half-1].Key, k)
		n -= half
	}
	r := run[base : base+n]
	c := 0
	for i := 3; i < len(r); i += 4 {
		c += less(r[i].Key, k)
	}
	c *= 4
	for _, e := range r[c:min(c+3, len(r))] {
		c += less(e.Key, k)
	}
	base += c
	return base, base < len(run) && run[base].Key == k
}

// searchWindow is the most entries searchOrdered counts: a full leaf is
// halved once, at its middle entry, and then counted in 31 entries — eight
// cache lines of int64 pairs — rather than counted whole over sixteen.
// DESIGN.md ("Leaf kernels") has the measurement.
const searchWindow = 31

// searchNarrow is searchOrdered over a narrow run: key i is base + off[i].
// A key below base or past base's 16-bit reach is placed without reading an
// offset; any other is searched for as its own offset.
func searchNarrow[K integer](base K, off []uint16, k K) (int, bool) {
	if k < base {
		return 0, false
	}
	d := uint64(k) - uint64(base) // k − base: both sign- or zero-extend alike
	if d > 1<<16-1 {
		return len(off), false
	}
	return searchOff(off, uint16(d))
}

// searchOff is searchOrdered over offsets, which a run of 63 keeps in 126
// bytes — two or three cache lines where a wide run's keys take sixteen.
// It halves down to offWindow offsets and counts those.
func searchOff(off []uint16, d uint16) (int, bool) {
	base, n := 0, len(off)
	for n > offWindow {
		half := (n + 1) >> 1
		base += half & -less(off[base+half-1], d)
		n -= half
	}
	c := 0
	for _, x := range off[base : base+n] {
		c += less(x, d)
	}
	base += c
	return base, base < len(off) && off[base] == d
}

// offWindow is the most offsets searchOff counts: a full run is halved
// twice, then 15 offsets are counted.  On a cold tree that beat counting 32
// or all 63 (DESIGN.md, "Narrow leaves").
const offWindow = 16

// less is 1 when a < b and 0 otherwise, as a flag materialized rather than
// branched on.
func less[K cmp.Ordered](a, b K) int {
	if a < b {
		return 1
	}
	return 0
}

// sortRun is the length up to which sortOrdered sorts by insertion.
const sortRun = 16

// sortOrdered sorts a batch by key, stably: insertion-sorted stretches of
// sortRun entries, merged pairwise back and forth between the batch and buf,
// which is returned — grown to the batch's length when it was shorter — for
// the next sort.  (slices.SortStableFunc merges in place, by rotations, at
// several times the cost; it has no buffer to merge through.)
func sortOrdered[K cmp.Ordered, V any](batch, buf []Entry[K, V]) []Entry[K, V] {
	n := len(batch)
	for lo := 0; lo < n; lo += sortRun {
		r := batch[lo:min(lo+sortRun, n)]
		for i := 1; i < len(r); i++ {
			e := r[i]
			j := i
			for ; j > 0 && e.Key < r[j-1].Key; j-- {
				r[j] = r[j-1]
			}
			r[j] = e
		}
	}
	if n <= sortRun {
		return buf
	}
	if cap(buf) < n {
		buf = make([]Entry[K, V], n)
	}
	buf = buf[:cap(buf)]
	src, dst := batch, buf[:n]
	for w := sortRun; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if src[j].Key < src[i].Key { // a tie takes the left entry: the earlier one
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &batch[0] {
		copy(batch, src)
	}
	return buf
}

package ftree

import "unsafe"

// A leaf's allocation unit is one of two layouts, fixed by its keys (the
// canonical rule, narrowFor): a wide leaf stores its run as entries; a
// narrow leaf, under integer kernels, stores each key as a 16-bit offset
// from the run's first key, whenever the run's keys span less than 1<<16
// and the narrow unit is the smaller.  Both begin with the header an
// internal Node begins with, and the narrow flag there says which layout a
// leaf's unit is.  A parent's *Node child pointer addresses a leaf's unit
// directly: the fill word at the same offset in all three says which kind
// of node it is, and node, unit and narrowUnit below are the only
// conversions between the views.  Through a *Node, a leaf's ref, fill,
// narrow and aug may be read and written; its left, right, size, key and
// val do not exist and are never touched.

// leaf is the wide unit: the header followed inline by the run.  For int64
// keys and values it is 1 KiB under NoAug and under SumAug alike
// (TestLeafUnitSize), and with pointer-free K, V and A it holds no pointer,
// so the collector never scans it.
type leaf[K, V, A any] struct {
	leafHead[A]
	e [leafMax]Entry[K, V]
}

// narrowLeaf is the narrow unit: the header, then the run as key i =
// base + off[i] and value v[i].  For int64 pairs it is 656 bytes under
// NoAug and SumAug alike, and pointer-free (TestLeafUnitSize).
type narrowLeaf[K, V, A any] struct {
	leafHead[A]
	narrowRun[K, V]
}

// narrowRun is a narrow unit's body, one struct so a replace copies it in
// one assignment.  off[0] is 0 and the offsets ascend.
type narrowRun[K, V any] struct {
	base K
	off  [leafMax]uint16
	v    [leafMax]V
}

// leafHead is the words a leaf shares with an internal Node — ref, fill,
// narrow and aug, at the same offsets — and at most 16 bytes.  The
// zero-length array aligns the unit as a Node is aligned.  Go pads a struct
// that ends in a zero-size field, so with a zero-size A (NoAug) the header
// still takes 16 bytes of a 1 KiB unit rather than 8 of a 1 016-byte one:
// the run starts on a 16-byte boundary and a chunk of units lies on cache
// lines.
type leafHead[A any] struct {
	_      [0]int64
	ref    int32
	fill   uint16 // the run's length, 1..leafMax
	narrow bool   // the unit is a narrowLeaf
	_      uint8  // fills the word, so aug starts at 8 whatever A is
	aug    A
}

// node is unit u as the Node its parent points to.
func (u *leaf[K, V, A]) node() *Node[K, V, A] { return (*Node[K, V, A])(unsafe.Pointer(u)) }

// node is narrow unit u as the Node its parent points to.
func (u *narrowLeaf[K, V, A]) node() *Node[K, V, A] { return (*Node[K, V, A])(unsafe.Pointer(u)) }

// unit is wide leaf n as its unit; n.fill != 0 and !n.narrow.
func (n *Node[K, V, A]) unit() *leaf[K, V, A] { return (*leaf[K, V, A])(unsafe.Pointer(n)) }

// narrowUnit is narrow leaf n as its unit; n.narrow.
func (n *Node[K, V, A]) narrowUnit() *narrowLeaf[K, V, A] {
	return (*narrowLeaf[K, V, A])(unsafe.Pointer(n))
}

// unitFitsNode reports whether a leaf's unit can be addressed as a Node: it
// is at least as large — the conversion must not reach past the object —
// and aug lies where a Node's does.  Only a key and value of less than two
// bytes together make the unit the smaller.
func unitFitsNode[K, V, A any]() bool {
	var u leaf[K, V, A]
	var n Node[K, V, A]
	return unsafe.Sizeof(u) >= unsafe.Sizeof(n) && unsafe.Offsetof(u.aug) == unsafe.Offsetof(n.aug)
}

// narrowPays reports whether a narrow unit of K, V and A is smaller than
// the wide one and can be addressed as a Node.
func narrowPays[K, V, A any]() bool {
	var w leaf[K, V, A]
	var u narrowLeaf[K, V, A]
	var n Node[K, V, A]
	return unsafe.Sizeof(u) < unsafe.Sizeof(w) && unsafe.Sizeof(u) >= unsafe.Sizeof(n)
}

// Key arithmetic for narrow leaves.  A leaf is narrow only under an Ops with
// integer kernels (NewNatural with an integer K), so K is then an integer of
// 4 or 8 bytes, and two's-complement sums and differences are those of the
// key's bits whatever its sign: keyAt and keySpan work on the bits, as
// unsigned words of the key's width.

// keyAt is the key at offset d from base.
func keyAt[K any](base K, d uint16) K {
	if unsafe.Sizeof(base) == 8 {
		x := *(*uint64)(unsafe.Pointer(&base)) + uint64(d)
		return *(*K)(unsafe.Pointer(&x))
	}
	x := *(*uint32)(unsafe.Pointer(&base)) + uint32(d)
	return *(*K)(unsafe.Pointer(&x))
}

// keySpan is hi − lo for keys lo ≤ hi.
func keySpan[K any](lo, hi K) uint64 {
	if unsafe.Sizeof(lo) == 8 {
		return *(*uint64)(unsafe.Pointer(&hi)) - *(*uint64)(unsafe.Pointer(&lo))
	}
	return uint64(*(*uint32)(unsafe.Pointer(&hi)) - *(*uint32)(unsafe.Pointer(&lo)))
}

// offset is k's offset from base in a narrow leaf that holds both.  It is
// also how far one narrow run's base lies from another's in a run that
// holds both bases: modulo 1<<16, which is what re-basing an offset needs.
func offset[K any](base, k K) uint16 { return uint16(keySpan(base, k)) }

package ftree

import "unsafe"

// leaf is a leaf's allocation unit: the header it shares with an internal
// Node followed inline by its run, one object.  For int64 keys and values
// it is 1 KiB under NoAug and under SumAug alike (TestLeafUnitSize), and
// with pointer-free K, V and A it holds no pointer, so the collector never
// scans it.  A parent's *Node child pointer addresses a leaf's unit
// directly: the fill word at the same offset in both says which kind it is,
// and node and unit below are the only conversions between the two views.
// Through a *Node, a leaf's ref, fill and aug may be read and written; its
// left, right, size, key and val do not exist and are never touched.
type leaf[K, V, A any] struct {
	leafHead[A]
	e [leafMax]Entry[K, V]
}

// leafHead is the words a leaf shares with an internal Node — ref, fill and
// aug, at the same offsets — and at most 16 bytes.  The zero-length array
// aligns the unit as a Node is aligned.  Go pads a struct that ends in a
// zero-size field, so with a zero-size A (NoAug) the header still takes 16
// bytes of a 1 KiB unit rather than 8 of a 1 016-byte one: the run starts on
// a 16-byte boundary and a chunk of units lies on cache lines.
type leafHead[A any] struct {
	_    [0]int64
	ref  int32
	fill int32 // the run's length, 1..leafMax
	aug  A
}

// node is unit u as the Node its parent points to.
func (u *leaf[K, V, A]) node() *Node[K, V, A] { return (*Node[K, V, A])(unsafe.Pointer(u)) }

// unit is leaf n as its unit; n.fill != 0.
func (n *Node[K, V, A]) unit() *leaf[K, V, A] { return (*leaf[K, V, A])(unsafe.Pointer(n)) }

// run returns leaf n's entries.
func (n *Node[K, V, A]) run() []Entry[K, V] { return n.unit().e[:n.fill] }

// unitFitsNode reports whether a leaf's unit can be addressed as a Node: it
// is at least as large — the conversion must not reach past the object —
// and aug lies where a Node's does.  Only a key and value of less than two
// bytes together make the unit the smaller.
func unitFitsNode[K, V, A any]() bool {
	var u leaf[K, V, A]
	var n Node[K, V, A]
	return unsafe.Sizeof(u) >= unsafe.Sizeof(n) && unsafe.Offsetof(u.aug) == unsafe.Offsetof(n.aug)
}

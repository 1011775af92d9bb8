package ftree

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// TestLeafUnitSize pins the layout the memory figures rest on: a leaf of
// int64 pairs is one 512-byte unit with and without an int64 augmentation,
// an unaugmented internal node is 48 bytes, and the unit holds no pointer —
// the collector never scans it.
func TestLeafUnitSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the figures are for 64-bit words")
	}
	for _, s := range []struct {
		what      string
		got, want uintptr
	}{
		{"leaf unit, NoAug", unsafe.Sizeof(leaf[int64, int64, struct{}]{}), 512},
		{"leaf unit, SumAug", unsafe.Sizeof(leaf[int64, int64, int64]{}), 512},
		{"internal node, NoAug", unsafe.Sizeof(Node[int64, int64, struct{}]{}), 48},
	} {
		if s.got != s.want {
			t.Errorf("%s: %d bytes, want %d", s.what, s.got, s.want)
		}
	}
	if !pointerFree(reflect.TypeFor[leaf[int64, int64, struct{}]]()) || !pointerFree(reflect.TypeFor[leaf[int64, int64, int64]]()) {
		t.Errorf("a leaf unit of int64 pairs holds a pointer")
	}
}

// TestTreeBytesPerKey: a tree of n int64 pairs built by one MultiInsert
// costs at most 18.5 bytes a key of live heap.  The lengths lie on both
// sides of (leafMax+1)·2^k, where a build that halves a run until it fits
// a leaf jumps from full leaves to half-empty ones.
func TestTreeBytesPerKey(t *testing.T) {
	for _, n := range []int{500_000, 600_000, 1_100_000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			o, _ := NewNatural[int64, int64, struct{}](NoAug[int64, int64](), 0)
			batch := make([]Entry[int64, int64], n)
			for i, k := range rand.New(rand.NewSource(int64(n))).Perm(n) {
				batch[i] = Entry[int64, int64]{Key: int64(k), Val: int64(i)}
			}
			before := heapAlloc()
			root := o.MultiInsert(nil, batch, nil)
			perKey := float64(heapAlloc()-before) / float64(n)
			runtime.KeepAlive(batch)
			if got := o.Size(root); got != int64(n) {
				t.Fatalf("size %d, want %d", got, n)
			}
			o.Release(root)
			t.Logf("%d keys: %.2f B/key", n, perKey)
			if perKey > 18.5 {
				t.Fatalf("%d keys: %.2f B/key, want ≤ 18.5", n, perKey)
			}
		})
	}
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

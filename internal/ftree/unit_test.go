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
// int64 pairs is one 1 KiB unit with and without an int64 augmentation,
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
		{"leaf unit, NoAug", unsafe.Sizeof(leaf[int64, int64, struct{}]{}), 1024},
		{"leaf unit, SumAug", unsafe.Sizeof(leaf[int64, int64, int64]{}), 1024},
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
// costs at most 17.25 bytes a key of live heap.  The lengths lie on both
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
			if perKey > 17.25 {
				t.Fatalf("%d keys: %.2f B/key, want ≤ 17.25", n, perKey)
			}
		})
	}
}

// TestArenaLeafCacheBytes: an arena's leaf caches are sized in bytes, not
// units — a fresh locality chunk is 32 KiB and a full leaf magazine 128 KiB,
// to within one unit, whatever the unit's size — so a wider leaf parks no
// more memory per pid.  Internal-node magazines keep their object counts.
func TestArenaLeafCacheBytes(t *testing.T) {
	checkLeafCaches[int64, int64, struct{}](t, "int64 pairs, NoAug")
	checkLeafCaches[int64, int64, int64](t, "int64 pairs, SumAug")
	checkLeafCaches[int32, int32, struct{}](t, "int32 pairs")
	checkLeafCaches[string, int64, struct{}](t, "string keys")
	checkLeafCaches[int64, [4]int64, struct{}](t, "[4]int64 values")
}

func checkLeafCaches[K, V, A any](t *testing.T, what string) {
	t.Helper()
	a := New[K, V, A](func(K, K) int { return 0 }, nil, 0).NewArena()
	unit := unsafe.Sizeof(leaf[K, V, A]{})
	t.Logf("%s: %d-byte units, chunk %d, magazine %d", what, unit, a.leaves.chunk, cap(a.leaves.mag))
	for _, c := range []struct {
		name  string
		units int
		bytes uintptr
	}{{"chunk", a.leaves.chunk, chunkLeafBytes}, {"magazine", cap(a.leaves.mag), magLeafBytes}} {
		if got := uintptr(c.units) * unit; got > c.bytes || got+unit <= c.bytes {
			t.Errorf("%s: a leaf %s of %d units is %d B, want the most units within %d B", what, c.name, c.units, got, c.bytes)
		}
	}
	if cap(a.nodes.mag) != magCap || a.nodes.chunk != chunkNodes {
		t.Errorf("%s: internal-node magazine %d, chunk %d; want %d, %d", what, cap(a.nodes.mag), a.nodes.chunk, magCap, chunkNodes)
	}
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

package ftree

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// TestLeafUnitSize pins the layout the memory figures rest on: a wide leaf
// of int64 pairs is one 1 KiB unit and a narrow one 656 bytes, with and
// without an int64 augmentation, an unaugmented internal node is 48 bytes,
// and neither leaf unit holds a pointer — the collector never scans it.
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
		{"narrow leaf unit, NoAug", unsafe.Sizeof(narrowLeaf[int64, int64, struct{}]{}), 656},
		{"narrow leaf unit, SumAug", unsafe.Sizeof(narrowLeaf[int64, int64, int64]{}), 656},
		{"internal node, NoAug", unsafe.Sizeof(Node[int64, int64, struct{}]{}), 48},
	} {
		if s.got != s.want {
			t.Errorf("%s: %d bytes, want %d", s.what, s.got, s.want)
		}
	}
	for _, u := range []reflect.Type{
		reflect.TypeFor[leaf[int64, int64, struct{}]](), reflect.TypeFor[leaf[int64, int64, int64]](),
		reflect.TypeFor[narrowLeaf[int64, int64, struct{}]](), reflect.TypeFor[narrowLeaf[int64, int64, int64]](),
	} {
		if !pointerFree(u) {
			t.Errorf("%v holds a pointer", u)
		}
	}
	if !narrowPays[int64, int64, struct{}]() || !narrowPays[int64, int64, int64]() {
		t.Errorf("narrow leaves of int64 pairs do not pay")
	}
}

// TestTreeBytesPerKey: a tree of n int64 pairs built by one MultiInsert
// costs at most this many bytes a key of live heap.  Dense keys (0 to n−1)
// make narrow leaves: 656-byte units, each its own allocation in the 704-byte
// size class, and one 48-byte node, per 64 keys — 11.75 B/key.  Uniform
// random 64-bit keys make wide ones, 1 KiB: 16.75 B/key, the figure from
// before narrow leaves, which spread keys must keep.  With Recycle on, the
// unbound root carves its units from the depot's 32 KiB chunks instead: 49
// narrow units in the 32 768-byte class, 668.7 B each, and 12 KiB of nodes —
// 11.25 B/key before the depot's own slices, under 11.4 with them.  The
// lengths lie on both sides of (leafMax+1)·2^k, where a build that halves a
// run until it fits a leaf jumps from full leaves to half-empty ones.
func TestTreeBytesPerKey(t *testing.T) {
	for _, n := range []int{500_000, 600_000, 1_100_000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			dense := func(_ *rand.Rand, i int) int64 { return int64(i) }
			for _, c := range []struct {
				name    string
				key     func(rng *rand.Rand, i int) int64
				bound   float64
				recycle bool
			}{
				{"dense", dense, 11.8, false},
				{"random", func(rng *rand.Rand, _ int) int64 { return int64(rng.Uint64()) }, 17.25, false},
				{"dense, Recycle", dense, 11.4, true},
			} {
				o, _ := NewNatural[int64, int64, struct{}](NoAug[int64, int64](), 0)
				o.Recycle = c.recycle
				rng := rand.New(rand.NewSource(int64(n)))
				batch := make([]Entry[int64, int64], n)
				for i, k := range rng.Perm(n) {
					batch[i] = Entry[int64, int64]{Key: c.key(rng, k), Val: rng.Int63()}
				}
				before := heapAlloc()
				root := o.MultiInsert(nil, batch, nil)
				perKey := float64(heapAlloc()-before) / float64(n)
				runtime.KeepAlive(batch)
				if got := o.Size(root); got != int64(n) {
					t.Fatalf("%s keys: size %d, want %d", c.name, got, n)
				}
				o.Release(root)
				t.Logf("%s keys, %d: %.2f B/key", c.name, n, perKey)
				if perKey > c.bound {
					t.Fatalf("%s keys, %d: %.2f B/key, want ≤ %.2f", c.name, n, perKey, c.bound)
				}
			}
		})
	}
}

// TestArenaLeafCacheBytes: an arena's leaf caches — one magazine for each
// layout — are sized in bytes, not units: a fresh locality chunk is 32 KiB
// and a full leaf magazine 128 KiB, to within one unit, whatever the unit's
// size, so a wider leaf parks no more memory per pid.  Internal-node
// magazines keep their object counts.
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
	wide, narrow := unsafe.Sizeof(leaf[K, V, A]{}), unsafe.Sizeof(narrowLeaf[K, V, A]{})
	t.Logf("%s: %d-byte units, chunk %d, magazine %d; narrow %d-byte units, chunk %d, magazine %d",
		what, wide, a.leaves.chunk, cap(a.leaves.mag), narrow, a.narrow.chunk, cap(a.narrow.mag))
	for _, c := range []struct {
		name  string
		units int
		unit  uintptr
		bytes uintptr
	}{
		{"chunk", a.leaves.chunk, wide, chunkLeafBytes},
		{"magazine", cap(a.leaves.mag), wide, magLeafBytes},
		{"narrow chunk", a.narrow.chunk, narrow, chunkLeafBytes},
		{"narrow magazine", cap(a.narrow.mag), narrow, magLeafBytes},
	} {
		if got := uintptr(c.units) * c.unit; got > c.bytes || got+c.unit <= c.bytes {
			t.Errorf("%s: a leaf %s of %d units is %d B, want the most units within %d B", what, c.name, c.units, got, c.bytes)
		}
	}
	if cap(a.nodes.mag) != magCap || a.nodes.chunk != chunkNodes {
		t.Errorf("%s: internal-node magazine %d, chunk %d; want %d, %d", what, cap(a.nodes.mag), a.nodes.chunk, magCap, chunkNodes)
	}
}

// TestArenaCarvesOnlyUsedLayouts: a magazine carves its first chunk on its
// first get, so an arena whose trees hold leaves of one layout carves no
// chunk of the other: an Ops ordered by a Cmp has no narrow leaves, and
// dense integer keys under NewNatural no wide ones.  A cold pid that grows a tree of a few hundred keys
// carves one chunk of internal nodes and one of the leaves it makes —
// 12 KiB and at most 32 KiB, what it carved before narrow leaves — not a
// chunk of each layout.
func TestArenaCarvesOnlyUsedLayouts(t *testing.T) {
	byCmp := New[int64, int64, struct{}](IntCmp[int64], NoAug[int64, int64](), 0)
	natural, _ := NewNatural[int64, int64, struct{}](NoAug[int64, int64](), 0)
	for _, c := range []struct {
		name   string
		o      *Ops[int64, int64, struct{}]
		narrow bool // the leaves are narrow
	}{
		{"by Cmp", byCmp, false},
		{"natural, dense keys", natural, true},
	} {
		c.o.Recycle = true
		a := c.o.NewArena()
		bo := c.o.Bound(a)
		var root *Node[int64, int64, struct{}]
		for i := int64(0); i < 10*leafMax; i++ {
			nr := bo.Insert(root, i*7919%1000, i)
			bo.Release(root)
			root = nr
		}
		if first := leftmostLeaf(root); first.narrow != c.narrow {
			t.Fatalf("%s: leaves narrow %v, want %v", c.name, first.narrow, c.narrow)
		}
		used, unused := &a.leaves.carves, &a.narrow.carves
		unit, blk := unsafe.Sizeof(leaf[int64, int64, struct{}]{})*uintptr(a.leaves.chunk), a.narrow.blk != nil
		if c.narrow {
			used, unused = unused, used
			unit, blk = unsafe.Sizeof(narrowLeaf[int64, int64, struct{}]{})*uintptr(a.narrow.chunk), a.leaves.blk != nil
		}
		carved := uintptr(a.nodes.carves)*chunkNodes*unsafe.Sizeof(Node[int64, int64, struct{}]{}) + uintptr(*used)*unit
		t.Logf("%s: carved %d B: %d node chunks, %d leaf chunks", c.name, carved, a.nodes.carves, *used)
		if *unused != 0 || blk {
			t.Errorf("%s: %d chunks carved of the layout no leaf has", c.name, *unused)
		}
		if a.nodes.carves != 1 || *used != 1 || carved > 44<<10 {
			t.Errorf("%s: cold start carved %d B in %d node and %d leaf chunks, want one of each within 44 KiB", c.name, carved, a.nodes.carves, *used)
		}
		bo.Release(root)
		if c.o.Live() != 0 {
			t.Fatalf("%s: leaked %d units", c.name, c.o.Live())
		}
	}
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

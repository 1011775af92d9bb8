package ftree

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestIterEmpty(t *testing.T) {
	o := intOps(0)
	it := o.NewIter(nil)
	if it.Valid() {
		t.Fatal("iterator over empty tree is valid")
	}
	it.Next() // must not panic
}

func TestIterFullScan(t *testing.T) {
	o := intOps(0)
	rng := rand.New(rand.NewSource(13))
	root, ref := buildRandom(o, rng, 1000, 5000)
	var prev int64 = -1
	n := 0
	for it := o.NewIter(root); it.Valid(); it.Next() {
		if it.Key() <= prev {
			t.Fatalf("keys out of order: %d after %d", it.Key(), prev)
		}
		if ref[it.Key()] != it.Val() {
			t.Fatalf("key %d = %d, want %d", it.Key(), it.Val(), ref[it.Key()])
		}
		prev = it.Key()
		n++
	}
	if n != len(ref) {
		t.Fatalf("visited %d entries, want %d", n, len(ref))
	}
	o.Release(root)
	if o.Live() != 0 {
		t.Fatalf("leaked %d units", o.Live())
	}
}

func TestIterSeek(t *testing.T) {
	o := intOps(0)
	var root *Node[int64, int64, int64]
	for i := int64(0); i < 100; i += 2 { // even keys 0..98
		nr := o.Insert(root, i, i)
		o.Release(root)
		root = nr
	}
	cases := []struct {
		seek int64
		want int64 // first key ≥ seek; -1 for exhausted
	}{{-5, 0}, {0, 0}, {1, 2}, {50, 50}, {51, 52}, {98, 98}, {99, -1}, {1000, -1}}
	for _, c := range cases {
		it := o.NewIterAt(root, c.seek)
		if c.want == -1 {
			if it.Valid() {
				t.Fatalf("seek(%d): valid at %d, want exhausted", c.seek, it.Key())
			}
			continue
		}
		if !it.Valid() || it.Key() != c.want {
			t.Fatalf("seek(%d) at %v, want %d", c.seek, it, c.want)
		}
	}
	// Seek then scan covers the ordered suffix.
	n := 0
	for it := o.NewIterAt(root, 51); it.Valid(); it.Next() {
		n++
	}
	if n != 24 { // 52..98 step 2
		t.Fatalf("suffix scan visited %d, want 24", n)
	}
	o.Release(root)
}

// TestIterReuse: Reset and SeekGE re-position one iterator across
// different trees of the same family, and a value-typed Bind+SeekGE works
// exactly like NewIterAt — the contract the shard scan pool leans on.
func TestIterReuse(t *testing.T) {
	o := intOps(0)
	rng := rand.New(rand.NewSource(29))
	rootA, refA := buildRandom(o, rng, 500, 2000)
	rootB, refB := buildRandom(o, rng, 500, 2000)

	var it Iter[int64, int64, int64] // zero value, as pooled state
	it.Bind(o)
	count := func(reseek func()) int {
		reseek()
		n := 0
		for ; it.Valid(); it.Next() {
			n++
		}
		return n
	}
	if n := count(func() { it.Reset(rootA) }); n != len(refA) {
		t.Fatalf("Reset(A) visited %d, want %d", n, len(refA))
	}
	if n := count(func() { it.Reset(rootB) }); n != len(refB) {
		t.Fatalf("Reset(B) after A visited %d, want %d", n, len(refB))
	}
	// SeekGE on a reused iterator matches a fresh NewIterAt.
	for seek := int64(0); seek < 2100; seek += 97 {
		fresh := o.NewIterAt(rootA, seek)
		it.SeekGE(rootA, seek)
		if it.Valid() != fresh.Valid() {
			t.Fatalf("SeekGE(%d): valid=%v, fresh=%v", seek, it.Valid(), fresh.Valid())
		}
		if it.Valid() && (it.Key() != fresh.Key() || it.Val() != fresh.Val()) {
			t.Fatalf("SeekGE(%d) at %d, fresh at %d", seek, it.Key(), fresh.Key())
		}
	}
	o.Release(rootA)
	o.Release(rootB)
	checkExact(t, o)
}

// TestIterWarmSeekNoAlloc pins the pooling payoff: once the descent stack
// has grown to the tree's height, Reset and SeekGE never touch the heap.
func TestIterWarmSeekNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	o := intOps(0)
	rng := rand.New(rand.NewSource(31))
	root, _ := buildRandom(o, rng, 5000, 20000)
	defer o.Release(root)
	if o.Height(root) < 3 {
		t.Fatalf("height %d: the seeks cross no leaf boundary", o.Height(root))
	}

	var it Iter[int64, int64, int64]
	it.Bind(o)
	it.Reset(root) // grow the stack once
	seek := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		it.SeekGE(root, seek)
		for i := 0; i < 10 && it.Valid(); i++ {
			it.Next()
		}
		it.Reset(root)
		seek = (seek + 613) % 20000
	})
	if allocs != 0 {
		t.Fatalf("warm re-seek allocates %.1f times per run", allocs)
	}
}

// TestIterQuickMatchesEntries: for random trees, iteration equals the
// recursive in-order traversal, from any seek point.
func TestIterQuickMatchesEntries(t *testing.T) {
	o := intOps(0)
	f := func(seed int64, seekRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		root, _ := buildRandom(o, rng, 200, 400)
		defer o.Release(root)
		if o.Height(root) < 2 {
			return false // the walk must cross leaf boundaries
		}
		seek := int64(seekRaw) % 450
		var want []Entry[int64, int64]
		o.ForEach(root, func(k, v int64) {
			if k >= seek {
				want = append(want, Entry[int64, int64]{k, v})
			}
		})
		var got []Entry[int64, int64]
		for it := o.NewIterAt(root, seek); it.Valid(); it.Next() {
			got = append(got, Entry[int64, int64]{it.Key(), it.Val()})
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	checkExact(t, o)
}

// TestIterPointerKeysUnderGC: an Iter over string keys reads a leaf's keys
// from its run only, never from the bytes where an internal Node keeps its
// key field — in a wide string/int64 leaf those bytes are the first value
// and half of the second key, and copied into the Iter they would be a
// string whose data pointer is a user's integer.  Every value here is an
// address inside a live heap span but past its last object, which the
// collector rejects as a bad pointer (GODEBUG invalidptr, on by default)
// if it ever meets it in a pointer slot: the scan runs under a concurrent
// collector, so a write barrier or a mark of the heap-allocated Iter would
// find it.
func TestIterPointerKeysUnderGC(t *testing.T) {
	o, _ := NewNatural[string, int64, struct{}](NoAug[string, int64](), 0)
	// A 700-byte object lies in the 704-byte size class: 11 objects in an
	// 8 KiB span, and the span's last 448 bytes hold none.
	keep := make([]byte, 700)
	bad := int64(uintptr(unsafe.Pointer(&keep[0]))&^8191 + 8192 - 64)
	entries := make([]Entry[string, int64], 5000)
	for i := range entries {
		entries[i] = Entry[string, int64]{Key: "k" + strconv.Itoa(100000+i), Val: bad}
	}
	root := o.Build(entries)
	it := o.NewIter(nil)
	heapSink = []any{keep, it} // both live on the heap, the Iter as a pooled one does
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			runtime.GC()
		}
	}()
	defer func() {
		stop.Store(true)
		<-done
		heapSink = nil
	}()
	for round := 0; round < 200; round++ {
		n := 0
		for it.Reset(root); it.Valid(); it.Next() {
			if it.Key() != entries[n].Key || it.Val() != bad {
				t.Fatalf("entry %d: %q=%d, want %q", n, it.Key(), it.Val(), entries[n].Key)
			}
			n++
		}
		if n != len(entries) {
			t.Fatalf("visited %d entries, want %d", n, len(entries))
		}
	}
	o.Release(root)
	if o.Live() != 0 {
		t.Fatalf("leaked %d units", o.Live())
	}
}

// heapSink makes TestIterPointerKeysUnderGC's objects escape to the heap.
var heapSink any

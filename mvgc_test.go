package mvgc

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"mvgc/internal/ftree"
)

// checkAutoCmp drives keys of one default-ordered kind, given ascending,
// through a one-shard DB opened without a Cmp, so one leaf's run holds them
// and every comparison below is the kernel's own (ftree.NewNatural).  The
// first, the last and one middle key stay out of the tree: lookups that fall
// below the run's first entry, above its last and between two.  It also pins
// the ordering itself on every adjacent pair, and that comparing allocates
// nothing.
func checkAutoCmp[K comparable](t *testing.T, keys ...K) {
	t.Helper()
	ops, ok := ftree.NewNatural[K, int, struct{}](NoAug[K, int](), 0)
	if !ok {
		t.Fatalf("%T: no default ordering", keys[0])
	}
	cmp, sink := ops.Cmp, 0
	for i := 1; i < len(keys); i++ {
		lo, hi := keys[i-1], keys[i]
		if cmp(lo, hi) >= 0 || cmp(hi, lo) <= 0 || cmp(lo, lo) != 0 || cmp(hi, hi) != 0 {
			t.Fatalf("%T: cmp(%v,%v)=%d cmp(hi,lo)=%d cmp(lo,lo)=%d", lo, lo, hi, cmp(lo, hi), cmp(hi, lo), cmp(lo, lo))
		}
		if allocs := testing.AllocsPerRun(100, func() { sink += cmp(lo, hi) + cmp(hi, lo) }); allocs != 0 {
			t.Fatalf("%T: %.1f allocs per comparison pair", lo, allocs)
		}
	}

	db, err := OpenPlainDB[K, int](DBOptions[K]{Shards: 1, Procs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	absent := map[int]bool{0: true, len(keys) / 2: true, len(keys) - 1: true}
	var want []K
	// Descending point inserts, then the same keys as one batch given in
	// descending order: the sort has all the work to do, and every entry
	// replaces.
	var batch []Entry[K, int]
	for i := len(keys) - 1; i >= 0; i-- {
		if !absent[i] {
			db.Insert(keys[i], -1)
			batch = append(batch, Entry[K, int]{Key: keys[i], Val: i})
			want = append([]K{keys[i]}, want...)
		}
	}
	if err := db.InsertBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	vals, found := make([]int, len(keys)), make([]bool, len(keys))
	db.GetBatch(keys, vals, found)
	for i, k := range keys {
		v, ok := db.Get(k)
		if ok == absent[i] || (ok && v != i) {
			t.Fatalf("%T: Get(%v) = %d,%v; key #%d, absent %v", k, k, v, ok, i, absent[i])
		}
		if found[i] != ok || (ok && vals[i] != v) {
			t.Fatalf("%T: GetBatch(%v) = %d,%v; Get says %d,%v", k, k, vals[i], found[i], v, ok)
		}
	}
	var got []K
	db.View(func(s DBSnapshot[K, int, struct{}]) {
		s.ForEachCond(func(k K, _ int) bool { got = append(got, k); return true })
		// A scan from an absent key starts at the next one present.
		var first []K
		s.ScanFunc(keys[len(keys)/2], 1, func(k K, _ int) bool { first = append(first, k); return true })
		if len(first) != 1 || first[0] != keys[len(keys)/2+1] {
			t.Fatalf("%T: ScanFunc(%v, 1) = %v", keys[0], keys[len(keys)/2], first)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%T: ForEachCond visited %v, want %v", keys[0], got, want)
	}
	left := len(want)
	for i, k := range keys {
		db.Delete(k) // a miss for an absent key, and a no-op
		if !absent[i] {
			left--
		}
		if db.Has(k) || db.Len() != int64(left) {
			t.Fatalf("%T: after Delete(%v): Has=%v, Len=%d, want %d", k, k, db.Has(k), db.Len(), left)
		}
	}
}

// TestAutoCmp covers the seven key types with a default ordering, each
// across its sign or length boundary.
func TestAutoCmp(t *testing.T) {
	checkAutoCmp[int](t, -1<<63, -3, -1, 0, 2, 1<<62, 1<<63-1)
	checkAutoCmp[int32](t, -1<<31, -7, -1, 0, 1, 1<<30, 1<<31-1)
	checkAutoCmp[int64](t, -1<<63, -1<<32, -1, 0, 1, 1<<32, 1<<63-1)
	checkAutoCmp[uint](t, 0, 1, 1<<31, 1<<63-1, 1<<63, 1<<63+1, 1<<64-1)
	checkAutoCmp[uint32](t, 0, 1, 1<<31-1, 1<<31, 1<<31+1, 1<<32-2, 1<<32-1)
	checkAutoCmp[uint64](t, 0, 1, 1<<63-1, 1<<63, 1<<63+1, 1<<64-2, 1<<64-1)
	checkAutoCmp[string](t, "", "a", "ab", "abc", "abd", "b", "b\x00")
	if _, ok := ftree.NewNatural[float64, int, struct{}](NoAug[float64, int](), 0); ok {
		t.Fatal("float64 has no default ordering")
	}
}

// checkAutoCodec pins the default integer WAL codec of one kind: each value
// encodes as the 8 little-endian bytes of its uint64 conversion (a negative
// value sign-extended), and decodes back to itself.
func checkAutoCodec[T comparable](t *testing.T, widen func(T) uint64, vals ...T) {
	t.Helper()
	enc, dec, ok := autoCodec[T]()
	if !ok {
		t.Fatalf("%T has no default codec", vals[0])
	}
	for _, v := range vals {
		got := enc([]byte{0xee}, v)
		if want := binary.LittleEndian.AppendUint64([]byte{0xee}, widen(v)); !bytes.Equal(got, want) {
			t.Fatalf("%T %v encodes as %x, want %x", v, v, got, want)
		}
		if back, err := dec(got[1:]); err != nil || back != v {
			t.Fatalf("%T %v decodes back as %v, %v", v, v, back, err)
		}
	}
}

// TestAutoCodecBytes: the integer codecs write the same bytes for every
// kind and every sign, so logs and checkpoints already on disk stay
// readable; the string codec writes the string itself.
func TestAutoCodecBytes(t *testing.T) {
	checkAutoCodec(t, func(v int) uint64 { return uint64(v) }, 0, 1, -1, 1<<40, -1<<62)
	checkAutoCodec(t, func(v int32) uint64 { return uint64(v) }, 0, 255, -256, 1<<31-1, -1<<31)
	checkAutoCodec(t, func(v int64) uint64 { return uint64(v) }, 0, 7919, -7919, 1<<63-1, -1<<63)
	checkAutoCodec(t, func(v uint) uint64 { return uint64(v) }, 0, 1, 1<<63)
	checkAutoCodec(t, func(v uint32) uint64 { return uint64(v) }, 0, 1, 1<<32-1)
	checkAutoCodec(t, func(v uint64) uint64 { return v }, 0, 1, 1<<64-1)
	enc, dec, ok := autoCodec[string]()
	if got := enc([]byte("k:"), "v\x00w"); !ok || string(got) != "k:v\x00w" {
		t.Fatalf("string encodes as %q", got)
	}
	if back, err := dec([]byte("v\x00w")); err != nil || back != "v\x00w" {
		t.Fatalf("string decodes back as %q, %v", back, err)
	}
	if _, _, ok := autoCodec[float64](); ok {
		t.Fatal("float64 has a default codec")
	}
}

package shard

import (
	"sync"
	"sync/atomic"
	"testing"

	"mvgc/internal/ftree"
	"mvgc/internal/ycsb"
)

// TestGetBatchMatchesGet: on a quiet map a batch — shorter and longer than
// one partition chunk, with absent and repeated keys, over one shard and
// several — answers exactly what per-key Gets answer, and overwrites
// whatever an earlier batch left in the result slices.
func TestGetBatchMatchesGet(t *testing.T) {
	for _, shards := range []int{1, 2, 5} {
		initial := make([]ftree.Entry[int64, int64], 3000)
		for i := range initial {
			initial[i] = ftree.Entry[int64, int64]{Key: int64(2 * i), Val: int64(i) + 7} // odd keys absent
		}
		m := newSharded(t, "pswf", shards, 2, initial)
		rng := ycsb.NewSplitMix64(uint64(shards))
		for _, n := range []int{0, 1, 2, getChunk - 1, getChunk, getChunk + 1, 3*getChunk + 5} {
			keys, vals, found := make([]int64, n), make([]int64, n), make([]bool, n)
			for i := range keys {
				if keys[i] = int64(rng.Intn(6100)); i%5 == 4 {
					keys[i] = keys[i-1]
				}
				vals[i], found[i] = -1, i%2 == 0
			}
			m.GetBatch(keys, vals, found)
			for i, k := range keys {
				if v, ok := m.Get(k); vals[i] != v || found[i] != ok {
					t.Fatalf("%d shards, batch of %d: key %d (#%d) = %d,%v want %d,%v", shards, n, k, i, vals[i], found[i], v, ok)
				}
			}
		}
		m.Close()
		// After Close nothing is found, as with Get.
		keys, vals, found := []int64{0, 2, 4}, []int64{9, 9, 9}, []bool{true, true, true}
		m.GetBatch(keys, vals, found)
		for i := range keys {
			if vals[i] != 0 || found[i] {
				t.Fatalf("%d shards: key %d after Close = %d,%v", shards, keys[i], vals[i], found[i])
			}
		}
		if live := m.Live(); live != 0 {
			t.Fatalf("%d shards: leaked %d nodes", shards, live)
		}
	}
}

// TestGetBatchNeverStale runs GetBatch beside point writers that store a
// per-key monotone sequence.  published[k] trails the map: a writer raises
// it only after its Insert has returned, so whatever a reader loads from it
// before a batch is committed before the batch acquires any version, and
// the batch must answer at least that for k — an older value is a stale
// version, a value no writer stored under k a torn entry.
func TestGetBatchNeverStale(t *testing.T) {
	const (
		keys    = 512
		writers = 2
		readers = 3
		batch   = 100 // two chunks, both shards
	)
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	initial := make([]ftree.Entry[int64, int64], keys)
	for i := range initial {
		initial[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: int64(i)} // sequence 0
	}
	m := newSharded(t, "pswf", 2, writers+readers, initial)
	// A value is seq*keys + k: it names its key, and grows with seq.
	var published [keys]atomic.Int64
	var stop atomic.Bool
	var wwg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := ycsb.NewSplitMix64(uint64(w) + 1)
			for !stop.Load() {
				k := int64(rng.Intn(keys/writers))*writers + int64(w) // writers own disjoint keys
				v := max(published[k].Load(), k) + keys
				if err := m.Insert(k, v); err != nil {
					t.Error(err)
					return
				}
				published[k].Store(v)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := ycsb.NewSplitMix64(uint64(r) + 100)
			ks, floor := make([]int64, batch), make([]int64, batch)
			vals, found := make([]int64, batch), make([]bool, batch)
			for round := 0; round < rounds; round++ {
				for i := range ks {
					ks[i] = int64(rng.Intn(keys))
					floor[i] = max(published[ks[i]].Load(), ks[i])
				}
				m.GetBatch(ks, vals, found)
				for i, k := range ks {
					switch {
					case !found[i]:
						t.Errorf("key %d not found", k)
					case vals[i]%keys != k:
						t.Errorf("key %d answered with key %d's value %d", k, vals[i]%keys, vals[i])
					case vals[i] < floor[i]:
						t.Errorf("key %d = %d, older than %d published before the batch", k, vals[i], floor[i])
					default:
						continue
					}
					return
				}
			}
		}(r)
	}
	rwg.Wait()
	stop.Store(true)
	wwg.Wait()
	if m.Commits() < int64(rounds) {
		t.Errorf("only %d writes committed beside %d batches per reader", m.Commits(), rounds)
	}
	m.Close()
	if live := m.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestGetBatchNoAlloc is the batch read's allocation gate: the partition
// lives on the caller's stack and the transactions on the pids' preallocated
// handles, so a warm 256-key batch over two shards allocates nothing.
func TestGetBatchNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	initial := make([]ftree.Entry[int64, int64], 10_000)
	for i := range initial {
		initial[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: int64(i)}
	}
	m := newSharded(t, "pswf", 2, 2, initial)
	defer m.Close()
	rng := ycsb.NewSplitMix64(3)
	keys, vals, found := make([]int64, 256), make([]int64, 256), make([]bool, 256)
	run := func() {
		for i := range keys {
			keys[i] = int64(rng.Intn(12_000))
		}
		m.GetBatch(keys, vals, found)
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("warm 256-key GetBatch allocates %.2f times", allocs)
	}
}

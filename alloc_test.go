//go:build !race

package mvgc

import (
	"testing"

	"mvgc/internal/core"
	"mvgc/internal/ycsb"
)

// TestPointUpdateNoAlloc: a warm point update — an overwriting Insert, tree
// size steady — makes no heap allocation, through a leased core handle and
// through the sharded DB front door (hash the key, lease a pid, commit):
// every node comes out of the pid's magazines, and the transaction and
// collector state are pid-local and reused.  Race instrumentation
// allocates, so the file is built without it.
func TestPointUpdateNoAlloc(t *testing.T) {
	const records = 50_000
	initial := make([]Entry[uint64, uint64], records)
	for i := range initial {
		initial[i] = Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
	}
	rng := ycsb.NewSplitMix64(1)

	m, err := core.NewMap(core.Config{Procs: 4}, NewOps(IntCmp[uint64], NoAug[uint64, uint64](), 0), initial)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := m.Handle()
	defer h.Close()
	var k, v uint64
	f := func(tx *core.Txn[uint64, uint64, struct{}]) { tx.Insert(k, v) }
	handleUpdate := func() {
		k, v = rng.Next()%records, v+1
		h.Update(f)
	}

	db, err := OpenPlainDB[uint64, uint64](DBOptions[uint64]{Shards: 2, Procs: 4}, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dbInsert := func() {
		if err := db.Insert(rng.Next()%records, 1); err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range []struct {
		name string
		op   func()
	}{{"core handle", handleUpdate}, {"DB.Insert", dbInsert}} {
		for i := 0; i < 10_000; i++ { // warm the magazines and the VM's steady state
			c.op()
		}
		if allocs := testing.AllocsPerRun(1000, c.op); allocs != 0 {
			t.Errorf("warm point update through %s allocates %.2f times per op", c.name, allocs)
		}
	}
}

//go:build !race

package mvgc

import (
	"runtime"
	"strings"
	"testing"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/wal"
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

	m, err := core.NewMap(core.Config{Procs: 4}, ftree.New(ftree.IntCmp[uint64], NoAug[uint64, uint64](), 0), initial)
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

// discardSnapFS is the log's filesystem with the bytes written to a
// checkpoint's file counted and dropped, so that the filesystem's own copy
// of the payload does not count as the checkpoint's allocation.
type discardSnapFS struct {
	wal.FS
	written int64
}

func (f *discardSnapFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil || !strings.HasSuffix(name, "ck.tmp") {
		return file, err
	}
	return discardWrites{file, &f.written}, nil
}

type discardWrites struct {
	wal.File
	n *int64
}

func (d discardWrites) Write(p []byte) (int, error) {
	*d.n += int64(len(p))
	return len(p), nil
}

// TestCheckpointOneBuffer: a warm Checkpoint of a 100 k-key logged DB
// allocates one payload-sized buffer — sized from the previous
// checkpoint's bytes per entry, so it never grows by append — and a few
// small objects beside it: at most 1/32 of the payload plus 16 KiB more
// than the file's bytes in all, in at most 24 allocations.
func TestCheckpointOneBuffer(t *testing.T) {
	const records = 100_000
	initial := make([]Entry[int64, int64], records)
	for i := range initial {
		initial[i] = Entry[int64, int64]{Key: int64(i), Val: int64(i)}
	}
	fs := &discardSnapFS{FS: wal.NewMemFS()}
	// A fresh directory checkpoints initial at once: the cold checkpoint.
	db, err := OpenPlainDB[int64, int64](DBOptions[int64]{Shards: 2, Procs: 4, WAL: &WALOptions{Dir: "wal", FS: fs}}, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkpoint := func() {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	from := fs.written
	checkpoint()
	file := fs.written - from

	const runs = 10
	allocs := testing.AllocsPerRun(runs, checkpoint)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		checkpoint()
	}
	runtime.ReadMemStats(&after)
	perCkpt := int64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("warm checkpoint: %d-byte file, %d B and %.0f allocations per checkpoint", file, perCkpt, allocs)
	if limit := file + file/32 + 16<<10; perCkpt > limit {
		t.Errorf("a warm checkpoint allocates %d B, over one payload-sized buffer (%d-byte file, limit %d B)", perCkpt, file, limit)
	}
	if allocs > 24 {
		t.Errorf("a warm checkpoint makes %.0f allocations, want at most 24", allocs)
	}
}

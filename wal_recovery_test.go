package mvgc_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mvgc"
	"mvgc/internal/shard"
	"mvgc/internal/wal"
)

// openWALDB opens a small sharded DB logging to "wal" on the given
// filesystem with the default fsync policy (always: acked == durable).
func openWALDB(fs wal.FS) (*mvgc.DB[uint64, uint64, struct{}], error) {
	return mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{
		Shards: 4, Procs: 4,
		WAL: &mvgc.WALOptions{Dir: "wal", FS: fs, SegmentBytes: 1 << 12},
	}, nil)
}

func dumpDB(db *mvgc.DB[uint64, uint64, struct{}]) map[uint64]uint64 {
	got := map[uint64]uint64{}
	db.View(func(s mvgc.DBSnapshot[uint64, uint64, struct{}]) {
		s.ForEachCond(func(k, v uint64) bool { got[k] = v; return true })
	})
	return got
}

// walEffect is one key's outcome of a script step: an insert of val, or a
// delete.
type walEffect struct {
	k, v uint64
	del  bool
}

// walStep is one deterministic write against the DB plus its declared
// effects, used by the crash matrix to model what recovery may legally
// observe.  atomic marks steps whose effects commit under one WAL record
// (one GSN): recovery must see all of them or none.
type walStep struct {
	name   string
	atomic bool
	run    func(db *mvgc.DB[uint64, uint64, struct{}]) error
	eff    []walEffect
}

// walScript is a fixed sequence exercising every synchronous write path.
// Every value in the script is distinct so "which write does this key
// reflect" is never ambiguous.
func walScript() []walStep {
	type DB = mvgc.DB[uint64, uint64, struct{}]
	type Txn = mvgc.DBTxn[uint64, uint64, struct{}]
	// A batch of about 6 KB of post-images over every shard, wider than a
	// 4 KB segment: were its shards' parts separate records, a crash at the
	// segment roll between them would recover it torn.
	wide := []mvgc.Entry[uint64, uint64]{{Key: 9, Val: 90}, {Key: 10, Val: 100}}
	for k := uint64(1000); k < 1300; k++ {
		wide = append(wide, mvgc.Entry[uint64, uint64]{Key: k, Val: 10 * k})
	}
	var wideEff []walEffect
	for _, e := range wide {
		wideEff = append(wideEff, walEffect{k: e.Key, v: e.Val})
	}
	return []walStep{
		{name: "insert-1", run: func(db *DB) error { return db.Insert(1, 10) },
			eff: []walEffect{{k: 1, v: 10}}},
		{name: "insert-2", run: func(db *DB) error { return db.Insert(2, 20) },
			eff: []walEffect{{k: 2, v: 20}}},
		{name: "insertwith-1", run: func(db *DB) error {
			return db.InsertWith(1, 5, func(old, new uint64) uint64 { return old + new })
		}, eff: []walEffect{{k: 1, v: 15}}},
		{name: "atomic-3-4", atomic: true, run: func(db *DB) error {
			return db.UpdateAtomic(func(t *Txn) { t.Insert(3, 30); t.Insert(4, 40) })
		}, eff: []walEffect{{k: 3, v: 30}, {k: 4, v: 40}}},
		{name: "atomic-5-6", atomic: true, run: func(db *DB) error {
			return db.UpdateAtomic(func(t *Txn) { t.Insert(5, 50); t.Insert(6, 60) })
		}, eff: []walEffect{{k: 5, v: 50}, {k: 6, v: 60}}},
		{name: "atomickeys-7-8", atomic: true, run: func(db *DB) error {
			return db.UpdateAtomicKeys([]uint64{7, 8}, func(t *Txn) {
				v, _ := t.Get(1)
				t.Insert(7, v+55) // 15+55 = 70
				t.Insert(8, 80)
			})
		}, eff: []walEffect{{k: 7, v: 70}, {k: 8, v: 80}}},
		{name: "delete-2", run: func(db *DB) error { return db.Delete(2) },
			eff: []walEffect{{k: 2, del: true}}},
		{name: "insertbatch-9-10-wide", atomic: true, run: func(db *DB) error { return db.InsertBatch(wide, nil) },
			eff: wideEff},
		{name: "checkpoint", run: func(db *DB) error { return db.Checkpoint() }},
		{name: "insert-11", run: func(db *DB) error { return db.Insert(11, 110) },
			eff: []walEffect{{k: 11, v: 110}}},
		{name: "atomic-5-9", atomic: true, run: func(db *DB) error {
			return db.UpdateAtomic(func(t *Txn) { t.Insert(5, 51); t.Insert(9, 91) })
		}, eff: []walEffect{{k: 5, v: 51}, {k: 9, v: 91}}},
		{name: "atomic-delete-4-10", atomic: true, run: func(db *DB) error {
			return db.UpdateAtomic(func(t *Txn) { t.Delete(4); t.Delete(10) })
		},
			eff: []walEffect{{k: 4, del: true}, {k: 10, del: true}}},
		{name: "atomic-12", run: func(db *DB) error {
			return db.UpdateAtomic(func(t *Txn) { t.Insert(12, 120) })
		}, eff: []walEffect{{k: 12, v: 120}}},
		{name: "insert-13", run: func(db *DB) error { return db.Insert(13, 130) },
			eff: []walEffect{{k: 13, v: 130}}},
	}
}

// verifyRecovered checks a recovered image against the script model:
// every acked step's effects must be present exactly; the single in-flight
// step (if any) may be present or absent per key — or all-or-nothing when
// it was atomic; nothing else may exist.
func verifyRecovered(t *testing.T, tag string, steps []walStep, acked, failed int, got map[uint64]uint64) {
	t.Helper()
	expected := map[uint64]uint64{}
	for i := 0; i <= acked; i++ {
		for _, ef := range steps[i].eff {
			if ef.del {
				delete(expected, ef.k)
			} else {
				expected[ef.k] = ef.v
			}
		}
	}
	inflight := map[uint64]walEffect{}
	if failed >= 0 {
		for _, ef := range steps[failed].eff {
			inflight[ef.k] = ef
		}
	}
	for k, want := range expected {
		g, ok := got[k]
		if ef, touched := inflight[k]; touched {
			switch {
			case ef.del && ok && g != want:
				t.Errorf("%s: key %d = %d, want %d (old) or gone (in-flight delete)", tag, k, g, want)
			case !ef.del && !ok:
				t.Errorf("%s: acked key %d lost (in-flight overwrite may not erase it)", tag, k)
			case !ef.del && g != want && g != ef.v:
				t.Errorf("%s: key %d = %d, want %d (old) or %d (in-flight)", tag, k, g, want, ef.v)
			}
			continue
		}
		if !ok {
			t.Errorf("%s: acked key %d lost", tag, k)
		} else if g != want {
			t.Errorf("%s: key %d = %d, want %d", tag, k, g, want)
		}
	}
	for k, g := range got {
		if _, ok := expected[k]; ok {
			continue
		}
		ef, touched := inflight[k]
		if !touched || ef.del || g != ef.v {
			t.Errorf("%s: unexpected key %d = %d", tag, k, g)
		}
	}
	if failed >= 0 && steps[failed].atomic {
		applied, missing := 0, 0
		for _, ef := range steps[failed].eff {
			if got[ef.k] == ef.v {
				applied++
			} else {
				missing++
			}
		}
		if applied > 0 && missing > 0 {
			t.Errorf("%s: atomic step %s recovered torn: %d of %d effects applied",
				tag, steps[failed].name, applied, applied+missing)
		}
	}
}

// TestDBWALCrashMatrix is the recovery acceptance matrix: the fixed write
// script runs against a power-cut filesystem that crashes at every single
// filesystem operation index in turn (crossed with torn-tail variants),
// and after each crash the reopened DB must contain every acked write and
// no torn garbage.
func TestDBWALCrashMatrix(t *testing.T) {
	steps := walScript()

	// Probe run: count filesystem operations in a full clean run so the
	// matrix covers every crash point, including open and close.
	probe := wal.NewFaultFS(wal.NewMemFS())
	db, err := openWALDB(probe)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if err := st.run(db); err != nil {
			t.Fatalf("probe %s: %v", st.name, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < len(steps) {
		t.Fatalf("probe counted only %d fs ops", total)
	}

	for _, torn := range []int{0, 7} {
		for opIdx := 1; opIdx <= total; opIdx++ {
			tag := fmt.Sprintf("crash@%d/torn=%d", opIdx, torn)
			mem := wal.NewMemFS()
			ffs := wal.NewFaultFS(mem)
			ffs.SetTorn(torn)
			ffs.Script(opIdx, wal.FaultCrash)

			acked, failed := -1, -1
			db, err := openWALDB(ffs)
			if err == nil {
				for i, st := range steps {
					if e := st.run(db); e != nil {
						failed = i
						break
					}
					acked = i
				}
				if !ffs.Crashed() {
					// The scripted op index lands inside Close (or past
					// the run entirely): close cleanly, then verify the
					// full image below.
					db.Close()
				}
			}

			rdb, rerr := openWALDB(mem)
			if rerr != nil {
				t.Fatalf("%s: recovery open: %v", tag, rerr)
			}
			verifyRecovered(t, tag, steps, acked, failed, dumpDB(rdb))
			if err := rdb.Close(); err != nil {
				t.Fatalf("%s: recovery close: %v", tag, err)
			}
		}
	}
}

// TestDBWALBatchCrash covers the group-commit path: writes committed in runs
// (CommitEach) by two writers at once, each acked once the log is durable up
// to its run's mark, survive a power cut with no clean shutdown.
func TestDBWALBatchCrash(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := openWALDB(mem)
	if err != nil {
		t.Fatal(err)
	}
	const n, run = 200, 10
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := w * n / 2; lo < (w+1)*n/2 && errs[w] == nil; lo += run {
				mark, err := db.CommitEach(func(t *mvgc.DBTxn[uint64, uint64, struct{}]) {
					for i := lo; i < lo+run; i++ {
						t.Insert(uint64(i), uint64(i*10+1))
					}
				})
				if err == nil {
					err = shard.WAL(db).CommitTo(mark)
				}
				errs[w] = err
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	mem.Crash(0) // power cut: no Close

	rdb, err := openWALDB(mem)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	got := dumpDB(rdb)
	for i := 0; i < n; i++ {
		if got[uint64(i)] != uint64(i*10+1) {
			t.Fatalf("acked batched write %d lost after crash: got %d", i, got[uint64(i)])
		}
	}
}

// TestDBWALDiskRoundTrip exercises the default on-disk filesystem end to
// end: open with initial contents (checkpointed immediately), write, close,
// reopen — and confirm the log, not the caller's initial entries, is the
// source of truth on reopen.
func TestDBWALDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	open := func(initial []mvgc.Entry[uint64, uint64]) *mvgc.DB[uint64, uint64, struct{}] {
		t.Helper()
		db, err := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{
			Shards: 2, WAL: &mvgc.WALOptions{Dir: dir},
		}, initial)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}

	db := open([]mvgc.Entry[uint64, uint64]{{Key: 1, Val: 100}})
	if err := db.Insert(2, 200); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateAtomic(func(t *mvgc.DBTxn[uint64, uint64, struct{}]) {
		t.Insert(3, 300)
		t.Delete(1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A different initial on reopen must be ignored: the log wins.
	db2 := open([]mvgc.Entry[uint64, uint64]{{Key: 99, Val: 9900}})
	defer db2.Close()
	want := map[uint64]uint64{2: 200, 3: 300}
	got := dumpDB(db2)
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("recovered %v, want %v", got, want)
		}
	}
}

// TestDBWALFullFailsFast: when the log hits its size bound, writes fail
// with ErrWALFull instead of wedging, committed state stays readable, and
// a checkpoint retires segments and un-wedges the log.
func TestDBWALFullFailsFast(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{
		Shards: 2, Procs: 4,
		WAL: &mvgc.WALOptions{
			Dir: "wal", FS: mem,
			SegmentBytes: 256, MaxBytes: 1024,
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var full error
	var n uint64
	for i := uint64(0); i < 10_000; i++ {
		if err := db.Insert(i, i); err != nil {
			full, n = err, i
			break
		}
	}
	if !errors.Is(full, wal.ErrWALFull) {
		t.Fatalf("expected ErrWALFull, got %v", full)
	}
	// Apply-then-log: the refused insert is committed in memory (only its
	// durability failed), so the map holds n acked entries plus that one.
	if got := db.Len(); got != int64(n)+1 {
		t.Fatalf("Len = %d after %d acked inserts + 1 refused", got, n)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after full: %v", err)
	}
	if err := db.Insert(77_000, 1); err != nil {
		t.Fatalf("insert after checkpoint should succeed: %v", err)
	}
}

// TestDBCloseIdempotent races concurrent Close calls against writers at
// the DB level (satellite of the shard-level test): exactly one Close wins,
// every call returns, and post-close writes report ErrClosed.
func TestDBCloseIdempotent(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := openWALDB(mem)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				if err := db.Insert(seed*1_000_000+i, i); err != nil {
					if !errors.Is(err, mvgc.ErrClosed) {
						t.Errorf("writer error: %v", err)
					}
					return
				}
			}
		}(uint64(w))
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := db.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := db.Insert(0, 0); !errors.Is(err, mvgc.ErrClosed) {
		t.Fatalf("post-close Insert = %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("repeat Close = %v", err)
	}
}

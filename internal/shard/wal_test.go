package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"mvgc/internal/ftree"
	"mvgc/internal/wal"
)

func u64Codec() (func([]byte, uint64) []byte, func([]byte) (uint64, error)) {
	enc := func(dst []byte, x uint64) []byte { return binary.LittleEndian.AppendUint64(dst, x) }
	dec := func(b []byte) (uint64, error) {
		if len(b) != 8 {
			return 0, errors.New("bad u64 length")
		}
		return binary.LittleEndian.Uint64(b), nil
	}
	return enc, dec
}

func newWALMap(t *testing.T, shards int, fs wal.FS) (*Map[uint64, uint64, struct{}], *wal.Log) {
	t.Helper()
	m, rec := reopenWALMap(t, shards, fs)
	if len(rec.Records) != 0 || rec.Snapshot != nil {
		t.Fatalf("fresh dir recovered %d records, snapshot=%v", len(rec.Records), rec.Snapshot != nil)
	}
	return m, m.wal.log
}

// newU64Map builds the uint64 test map every WAL test shares: identity
// hash, so key k lives on shard k % shards.
func newU64Map(t *testing.T, shards int, initial []ftree.Entry[uint64, uint64]) *Map[uint64, uint64, struct{}] {
	t.Helper()
	m, err := New(
		Config[uint64]{Shards: shards, Procs: 4, Hash: func(k uint64) uint64 { return k }},
		func() *ftree.Ops[uint64, uint64, struct{}] {
			return ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 0)
		},
		initial,
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reopenWALMap opens (or re-opens) a WAL-backed map over fs, recovering
// whatever the log holds through the call DB recovery makes.
func reopenWALMap(t *testing.T, shards int, fs wal.FS) (*Map[uint64, uint64, struct{}], *wal.Recovered) {
	t.Helper()
	log, rec, err := wal.Open(wal.Options{Dir: "wal", FS: fs, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := u64Codec()
	cfg := WALConfig[uint64, uint64]{Log: log, EncKey: enc, DecKey: dec, EncVal: enc, DecVal: dec}
	m := newU64Map(t, shards, nil)
	if err := m.AttachWAL(cfg, rec); err != nil {
		t.Fatal(err)
	}
	return m, rec
}

// drainTail walks every record the tailer has ready, handing each payload
// (the tailer's own bytes, good for the call) to each, and counts them.
func drainTail(t *testing.T, tail *wal.Tailer, each func(payload []byte)) (records int) {
	t.Helper()
	for {
		run, err := tail.Next(false)
		if err != nil {
			t.Fatal(err)
		}
		if len(run) == 0 {
			return records
		}
		for len(run) > 0 {
			_, payload, n, err := wal.NextFrame(run)
			if err != nil {
				t.Fatal(err)
			}
			each(payload)
			records++
			run = run[n:]
		}
	}
}

func dump(m *Map[uint64, uint64, struct{}]) map[uint64]uint64 {
	out := map[uint64]uint64{}
	m.View(func(s Snap[uint64, uint64, struct{}]) {
		s.ForEachCond(func(k, v uint64) bool { out[k] = v; return true })
	})
	return out
}

// TestShardWALRoundTrip drives every logged write path — point ops,
// combining ops, multi-shard UpdateAtomic and UpdateAtomicKeys, batches —
// then reopens from the log alone
// and requires the exact same contents.
func TestShardWALRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	m, _ := newWALMap(t, 4, fs)

	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(m.Insert(1, 10))
	check(m.Insert(2, 20))
	check(m.InsertWith(1, 5, func(old, new uint64) uint64 { return old + new })) // -> 15
	check(m.Delete(2))
	check(m.Delete(999)) // no-op: no record
	check(m.UpdateAtomic(func(tx *Txn[uint64, uint64, struct{}]) {
		tx.Insert(3, 30)
		tx.Insert(4, 40)
		tx.InsertWith(3, 3, func(old, new uint64) uint64 { return old + new }) // -> 33
	}))
	check(m.UpdateAtomic(func(tx *Txn[uint64, uint64, struct{}]) {
		tx.Insert(5, 50)
		tx.Insert(6, 60)
		tx.Delete(4)
	}))
	check(m.UpdateAtomicKeys([]uint64{5, 6}, func(tx *Txn[uint64, uint64, struct{}]) {
		a, _ := tx.Get(5)
		b, _ := tx.Get(6)
		tx.Insert(5, a+b) // 110
		tx.Delete(6)
	}))
	check(m.InsertBatch([]ftree.Entry[uint64, uint64]{{Key: 7, Val: 70}, {Key: 8, Val: 80}}, nil))
	check(m.DeleteBatch([]uint64{8, 877}))

	check(m.groupCommit(m.CommitEach(func(tx *Txn[uint64, uint64, struct{}]) {
		tx.Insert(9, 90)
		tx.InsertWith(9, 9, func(old, new uint64) uint64 { return old + new }) // -> 99
		tx.Insert(11, 111)
	})))

	want := dump(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rec := reopenWALMap(t, 4, fs)
	defer m2.Close()
	if rec.MaxGSN == 0 || len(rec.Records) == 0 {
		t.Fatalf("expected recovered records, got %d (maxGSN %d)", len(rec.Records), rec.MaxGSN)
	}
	got := dump(m2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d: got %v want %v", len(got), len(want), got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d, want %d", k, got[k], v)
		}
	}
	wantVals := map[uint64]uint64{1: 15, 3: 33, 5: 110, 7: 70, 9: 99, 11: 111}
	for k, v := range wantVals {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d, want %d", k, got[k], v)
		}
	}
	// Post-recovery stamps must never rewind below logged ones.
	if g := m2.gsn.Load(); g < rec.MaxGSN {
		t.Fatalf("gsn resumed at %d, below recovered max %d", g, rec.MaxGSN)
	}
}

// TestWritePathDifferential is the safety net under the commit pipeline:
// one script over EVERY write entry point, run against (a) a map with no
// log and (b) a map logging to a MemFS.  After every step the two must hold
// identical contents, and (b)'s log must have grown by exactly the step's
// record count under exactly the step's number of group fsyncs.  Then (c) a
// fresh map recovered from (b)'s log (AttachWAL) and (d) a follower-shaped
// map fed the same records (ReplayRecord) must equal both, with the same
// CommitGSN — recovery and replication are one applyRecord.
func TestWritePathDifferential(t *testing.T) {
	type tmap = Map[uint64, uint64, struct{}]
	type txn = Txn[uint64, uint64, struct{}]
	add := func(old, new uint64) uint64 { return old + new }
	// each commits a run with CommitEach and waits for the log to reach its
	// mark, as a served connection's writer does.
	each := func(m *tmap, f func(tx *txn)) error { return m.groupCommit(m.CommitEach(f)) }
	steps := []struct {
		name    string
		run     func(m *tmap) error
		records int // redo records the step appends
		syncs   int // group fsyncs the step waits on
	}{
		{"Insert", func(m *tmap) error { return m.Insert(1, 10) }, 1, 1},
		{"Insert/second", func(m *tmap) error { return m.Insert(2, 20) }, 1, 1},
		{"InsertWith", func(m *tmap) error { return m.InsertWith(1, 5, add) }, 1, 1},
		{"InsertWith/absent", func(m *tmap) error { return m.InsertWith(13, 13, add) }, 1, 1},
		{"Delete", func(m *tmap) error { return m.Delete(2) }, 1, 1},
		// A commit that publishes nothing allocates no stamp: no record.
		{"Delete/absent", func(m *tmap) error { return m.Delete(999) }, 0, 0},
		{"InsertBatch", func(m *tmap) error {
			return m.InsertBatch([]ftree.Entry[uint64, uint64]{{Key: 7, Val: 70}, {Key: 8, Val: 80}, {Key: 12, Val: 120}}, nil)
		}, 1, 1}, // shards 3 and 0, ONE record
		{"InsertBatch/comb", func(m *tmap) error {
			return m.InsertBatch([]ftree.Entry[uint64, uint64]{{Key: 7, Val: 1}, {Key: 8, Val: 2}, {Key: 14, Val: 140}}, add)
		}, 1, 1}, // shards 3, 0 and 2
		// Key 877 is absent: shard 1's leg shares its root, publishes nothing
		// and logs nothing, like the point delete above.
		{"DeleteBatch", func(m *tmap) error { return m.DeleteBatch([]uint64{8, 877}) }, 1, 1},
		{"UpdateAtomic/three-shards", func(m *tmap) error {
			return m.UpdateAtomic(func(tx *txn) {
				tx.Insert(3, 30)
				tx.Insert(4, 40)
				tx.Insert(5, 50)
				tx.InsertWith(3, 3, add)
			})
		}, 1, 1},
		{"UpdateAtomic/single-shard", func(m *tmap) error {
			return m.UpdateAtomic(func(tx *txn) { tx.Insert(4, 44); tx.Insert(16, 160) })
		}, 1, 1},
		{"UpdateAtomic/multi-shard", func(m *tmap) error {
			return m.UpdateAtomic(func(tx *txn) {
				tx.Insert(5, 55)
				tx.InsertWith(6, 60, add)
				tx.Delete(4)
			})
		}, 1, 1}, // three shards, exactly ONE record
		{"UpdateAtomic/empty", func(m *tmap) error { return m.UpdateAtomic(func(tx *txn) {}) }, 0, 0},
		// Both arms of replay, on the leader and again where the record is
		// applied: plain inserts only (a key written twice among them) go
		// down as one batch; a delete or a comb keeps the list in order.
		{"UpdateAtomic/duplicate-keys/single-shard", func(m *tmap) error {
			return m.UpdateAtomic(func(tx *txn) { tx.Insert(20, 1); tx.Insert(24, 2); tx.Insert(20, 3); tx.Insert(28, 4) })
		}, 1, 1},
		{"UpdateAtomic/duplicate-keys", func(m *tmap) error {
			return m.UpdateAtomic(func(tx *txn) {
				tx.Insert(21, 1)
				tx.Insert(22, 2)
				tx.Insert(21, 3)
				tx.Insert(25, 4)
				tx.Insert(22, 5)
				tx.Insert(26, 6)
			})
		}, 1, 1}, // shards 1 and 2, three intents each
		{"UpdateAtomic/insert-and-delete", func(m *tmap) error {
			return m.UpdateAtomic(func(tx *txn) {
				tx.Insert(32, 5)
				tx.Insert(36, 6)
				tx.Delete(32)
				tx.Delete(36)
				tx.Insert(36, 7)
			})
		}, 1, 1},
		// Logged as post-images: the record holds key 40 twice, 1 then 3,
		// and no comb, so where it is applied it takes the batched arm.
		{"UpdateAtomic/comb", func(m *tmap) error {
			return m.UpdateAtomic(func(tx *txn) { tx.Insert(40, 1); tx.InsertWith(40, 2, add); tx.Insert(44, 3) })
		}, 1, 1},
		{"UpdateAtomicKeys", func(m *tmap) error {
			return m.UpdateAtomicKeys([]uint64{5, 6}, func(tx *txn) {
				a, _ := tx.Get(5)
				b, _ := tx.Get(6)
				tx.Insert(5, a+b)
				tx.Delete(6)
			})
		}, 1, 1},
		{"UpdateAtomicKeys/read-only", func(m *tmap) error {
			return m.UpdateAtomicKeys([]uint64{5}, func(tx *txn) { tx.Get(5); tx.Get(7) })
		}, 0, 0},
		// One restart.  f reads key 7 on shard 3, outside the footprint
		// (shard 1): the read dooms the attempt, shard 3 joins the fence and f
		// runs again.  The first run's point write on key 7 commits between
		// the two — shard 3's slot is not held yet — as its own record, so
		// the second run reads the new value, and nothing of the first is
		// installed or logged.
		{"UpdateAtomicKeys/fence-growth", func(m *tmap) error {
			before, runs := m.OCCAborts(), 0
			err := m.UpdateAtomicKeys([]uint64{1}, func(tx *txn) {
				v, _ := tx.Get(7) // shard 3; the footprint is shard 1
				if runs++; runs == 1 {
					if err := m.Insert(7, v+1000); err != nil {
						t.Error(err)
					}
				}
				tx.Insert(1, v)
			})
			if runs != 2 || m.OCCAborts() != before+1 {
				t.Errorf("fence growth: f ran %d times, %d restarts; want 2, 1", runs, m.OCCAborts()-before)
			}
			return err
		}, 2, 2}, // the point write inside f, then the committing attempt
		// Txn.InsertBatch: one intent per shard, one record per call, one
		// post-image per key.  Key 48's
		// two entries fold together before they meet the (absent) value
		// below; key 5's meets 115.
		{"UpdateAtomic/InsertBatch", func(m *tmap) error {
			return m.UpdateAtomic(func(tx *txn) {
				tx.InsertBatch([]ftree.Entry[uint64, uint64]{{Key: 48, Val: 1}, {Key: 49, Val: 2}, {Key: 48, Val: 3}, {Key: 5, Val: 1}}, add)
			})
		}, 1, 1}, // shards 0 and 1
		{"UpdateAtomic/InsertBatch/overwrite", func(m *tmap) error {
			return m.UpdateAtomic(func(tx *txn) {
				tx.InsertBatch([]ftree.Entry[uint64, uint64]{{Key: 52, Val: 1}, {Key: 56, Val: 2}, {Key: 52, Val: 3}}, nil)
			})
		}, 1, 1}, // shard 0; nil comb: the last entry of a key wins
		// A leg of nothing but deletes goes down as one multi-delete, on the
		// leader and where the record is applied; key 99 (shard 3) is absent,
		// so its leg logs nothing.
		{"DeleteBatch/one-shard-run", func(m *tmap) error { return m.DeleteBatch([]uint64{24, 20, 99, 28}) }, 1, 1},
		{"CommitEach", func(m *tmap) error { return each(m, func(tx *txn) { tx.Insert(9, 90) }) }, 1, 1},
		{"CommitEach/delete", func(m *tmap) error { return each(m, func(tx *txn) { tx.Delete(12) }) }, 1, 1},
		{"CommitEach/comb", func(m *tmap) error { return each(m, func(tx *txn) { tx.InsertWith(9, 9, add) }) }, 1, 1},
		// A run on one shard (shard 1) that deletes and inserts one key
		// applies, and logs, its writes in their order.
		{"CommitEach/delete-then-insert", func(m *tmap) error {
			return each(m, func(tx *txn) { tx.Delete(9); tx.Insert(9, 19) })
		}, 1, 1},
		{"CommitEach/comb/insert-delete-insert", func(m *tmap) error {
			return each(m, func(tx *txn) {
				tx.InsertWith(13, 1, add)
				tx.Delete(13)
				tx.InsertWith(13, 5, add)
				tx.InsertWith(17, 1, add)
				tx.Delete(17)
			})
		}, 1, 1},
		// A run over three shards is one record per shard under one fsync;
		// key 61's run of plain inserts goes down as one batch.
		{"CommitEach/three-shards", func(m *tmap) error {
			return each(m, func(tx *txn) {
				tx.Insert(60, 1)
				tx.Insert(61, 2)
				tx.Insert(65, 3)
				tx.Insert(61, 4)
				tx.Insert(62, 5)
			})
		}, 3, 1},
	}

	equal := func(what string, got, want map[uint64]uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys, want %d: got %v want %v", what, len(got), len(want), got, want)
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || gv != v {
				t.Fatalf("%s: key %d = (%d, %v), want %d", what, k, gv, ok, v)
			}
		}
	}

	plain := newU64Map(t, 4, nil)
	defer plain.Close()
	fs := wal.NewMemFS()
	logged, log := newWALMap(t, 4, fs)
	tail, err := log.Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for _, st := range steps {
		if err := st.run(plain); err != nil {
			t.Fatalf("%s (no log): %v", st.name, err)
		}
		syncs := fs.Syncs()
		if err := st.run(logged); err != nil {
			t.Fatalf("%s (logged): %v", st.name, err)
		}
		if got := fs.Syncs() - syncs; got != st.syncs {
			t.Errorf("%s: %d fsyncs, want %d", st.name, got, st.syncs)
		}
		records := drainTail(t, tail, func([]byte) {})
		if records != st.records {
			t.Errorf("%s: appended %d records, want %d", st.name, records, st.records)
		}
		equal(st.name+": logged vs no log", dump(logged), dump(plain))
	}
	want := dump(plain)
	equal("script result", want, map[uint64]uint64{1: 1071, 3: 33, 5: 116, 7: 1071, 9: 19, 13: 5, 14: 140, 16: 160,
		21: 3, 22: 5, 25: 4, 26: 6, 36: 7, 40: 3, 44: 3, 48: 4, 49: 2, 52: 3, 56: 2, 60: 1, 61: 4, 62: 5, 65: 3})
	if plain.CommitGSN() != logged.CommitGSN() {
		t.Errorf("CommitGSN: no log %d, logged %d", plain.CommitGSN(), logged.CommitGSN())
	}
	gsn := logged.CommitGSN()
	if err := logged.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, rec := reopenWALMap(t, 4, fs)
	defer recovered.Close()
	equal("recovered", dump(recovered), want)
	if rec.MaxGSN != gsn || recovered.CommitGSN() != gsn {
		t.Errorf("recovered CommitGSN %d (log max %d), want %d", recovered.CommitGSN(), rec.MaxGSN, gsn)
	}

	follower, _ := newWALMap(t, 4, wal.NewMemFS())
	defer follower.Close()
	for _, r := range rec.Records {
		if err := follower.ReplayRecord(r.GSN, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	equal("follower", dump(follower), want)
	if follower.CommitGSN() != gsn {
		t.Errorf("follower CommitGSN %d, want %d", follower.CommitGSN(), gsn)
	}
}

// TestRecoverWALReplayArms feeds AttachWAL hand-made records that take each
// arm of replay — plain inserts with a repeated key (one batch), an insert
// and a delete of the same key (in order), a lone insert — and requires
// what applying every op in stream order gives.
func TestRecoverWALReplayArms(t *testing.T) {
	type op struct {
		del  bool
		k, v uint64
	}
	records := [][]op{
		{{k: 4, v: 1}, {k: 8, v: 2}, {k: 4, v: 3}, {k: 5, v: 4}, {k: 12, v: 5}, {k: 8, v: 6}},
		{{k: 16, v: 7}, {k: 4, v: 8}, {del: true, k: 16}, {del: true, k: 8}, {k: 8, v: 9}},
		{{k: 5, v: 10}},
		{{k: 5, v: 11}, {k: 5, v: 12}},
	}
	log, err := wal.Create(wal.Options{Dir: "wal", FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := u64Codec()
	cfg := WALConfig[uint64, uint64]{Log: log, EncKey: enc, DecKey: dec, EncVal: enc, DecVal: dec}
	want := map[uint64]uint64{}
	rec := &wal.Recovered{}
	for i, ops := range records {
		e := &walEnc[uint64, uint64]{cfg: &cfg}
		for _, o := range ops {
			if o.del {
				e.appendDelete(o.k)
				delete(want, o.k)
			} else {
				e.appendInsert(o.k, o.v)
				want[o.k] = o.v
			}
		}
		rec.Records = append(rec.Records, wal.Record{GSN: uint64(i + 1), Payload: e.buf})
		rec.MaxGSN = uint64(i + 1)
	}
	m := newU64Map(t, 4, nil)
	defer m.Close()
	if err := m.AttachWAL(cfg, rec); err != nil {
		t.Fatal(err)
	}
	got := dump(m)
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("recovered %v, want %v", got, want)
		}
	}
	if m.CommitGSN() != rec.MaxGSN {
		t.Fatalf("CommitGSN %d, want %d", m.CommitGSN(), rec.MaxGSN)
	}
}

// TestShardWALBatchLogsCoalesced: a batch holding duplicate keys logs one op
// per key — the batch as committed, not the gathered length with a stale
// tail — through Map.InsertBatch and through a Txn.InsertBatch.
func TestShardWALBatchLogsCoalesced(t *testing.T) {
	m, log := newWALMap(t, 1, wal.NewMemFS())
	defer m.Close()
	tail, err := log.Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	// logged drains the tail: how many records, and which keys' inserts.
	logged := func() (records int, keys []uint64) {
		t.Helper()
		records = drainTail(t, tail, func(payload []byte) {
			err := decodeWALOps(&m.wal.cfg, payload, func(k, _ uint64) { keys = append(keys, k) }, func(uint64) {})
			if err != nil {
				t.Fatal(err)
			}
		})
		return records, keys
	}
	add := func(old, new uint64) uint64 { return old + new }
	dups := func() []ftree.Entry[uint64, uint64] { // six entries, three duplicates
		return []ftree.Entry[uint64, uint64]{{Key: 3, Val: 1}, {Key: 1, Val: 2}, {Key: 3, Val: 4}, {Key: 2, Val: 8}, {Key: 1, Val: 16}, {Key: 3, Val: 32}}
	}
	want := []uint64{1, 2, 3}
	forms := []struct {
		name  string
		write func(comb func(old, new uint64) uint64) error
	}{
		{"Map.InsertBatch", func(comb func(old, new uint64) uint64) error { return m.InsertBatch(dups(), comb) }},
		{"Txn.InsertBatch", func(comb func(old, new uint64) uint64) error {
			return m.UpdateAtomic(func(tx *Txn[uint64, uint64, struct{}]) { tx.InsertBatch(dups(), comb) })
		}},
	}
	for _, f := range forms {
		for _, comb := range []func(old, new uint64) uint64{add, nil} {
			if err := f.write(comb); err != nil {
				t.Fatal(err)
			}
			if records, keys := logged(); records != 1 || !slices.Equal(keys, want) {
				t.Fatalf("%s (comb %v) logged %d records inserting keys %v, want 1 record of %v", f.name, comb != nil, records, keys, want)
			}
		}
	}
	if got := dump(m); got[1] != 16 || got[2] != 8 || got[3] != 32 {
		t.Fatalf("contents %v, want the last write of each key", got)
	}
}

// TestShardWALCheckpoint: a checkpoint snapshots a consistent cut, retires
// covered segments, and recovery over snapshot+tail reproduces the map.
func TestShardWALCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	m, log := newWALMap(t, 2, fs)
	for k := uint64(0); k < 64; k++ {
		if err := m.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := log.Stat(); st.Segments != 1 { // current only; all sealed retired
		t.Fatalf("checkpoint left %d segments, want 1", st.Segments)
	}
	for k := uint64(64); k < 80; k++ {
		if err := m.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Delete(0); err != nil {
		t.Fatal(err)
	}
	want := dump(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rec := reopenWALMap(t, 2, fs)
	defer m2.Close()
	if rec.Snapshot == nil || rec.SnapshotCut == 0 {
		t.Fatal("expected a snapshot from the checkpoint")
	}
	got := dump(m2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d, want %d", k, got[k], v)
		}
	}
}

// TestShardWALCheckpointIdleShard: a shard that never commits does not hold
// the checkpoint cut at 0.  Only key 1 (shard 1 of 4) is written, over many
// small segments; a checkpoint then cuts at the last commit's GSN, retires
// every sealed segment, and recovery over the snapshot reproduces the map.
func TestShardWALCheckpointIdleShard(t *testing.T) {
	fs := wal.NewMemFS()
	log, _, err := wal.Open(wal.Options{Dir: "wal", FS: fs, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := u64Codec()
	m := newU64Map(t, 4, nil)
	if err := m.AttachWAL(WALConfig[uint64, uint64]{Log: log, EncKey: enc, DecKey: dec, EncVal: enc, DecVal: dec}, nil); err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 2000; v++ {
		if err := m.Insert(1, v); err != nil {
			t.Fatal(err)
		}
	}
	if st := log.Stat(); st.Segments < 4 {
		t.Fatalf("only %d segments before the checkpoint; the test needs several", st.Segments)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := log.Stat(); st.SnapshotCut != m.CommitGSN() || st.Segments != 1 {
		t.Fatalf("checkpoint cut %d with CommitGSN %d and left %d segments; want the cut at CommitGSN and 1 segment", st.SnapshotCut, m.CommitGSN(), st.Segments)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, rec := reopenWALMap(t, 4, fs)
	defer m2.Close()
	if len(rec.Records) != 0 {
		t.Fatalf("recovery replayed %d records above the cut, want 0", len(rec.Records))
	}
	if got := dump(m2); len(got) != 1 || got[1] != 1999 {
		t.Fatalf("recovered %v, want {1: 1999}", got)
	}
}

// TestShardWALFailFast: once the log is poisoned (injected sync failure),
// writes return the error BEFORE committing to memory, and Close still
// works.
func TestShardWALFailFast(t *testing.T) {
	ffs := wal.NewFaultFS(wal.NewMemFS())
	m, log := newWALMap(t, 2, ffs)
	defer m.Close()
	if err := m.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	// Arm: every subsequent write-side op fails.
	for op := ffs.Ops() + 1; op < ffs.Ops()+200; op++ {
		ffs.Script(op, wal.FaultErr)
	}
	if err := m.Insert(2, 2); err == nil {
		t.Fatal("Insert with a failing log returned nil")
	}
	if log.Err() == nil {
		t.Fatal("log error not sticky")
	}
	// Fail fast now: no memory commit for refused writes.
	if err := m.Insert(3, 3); err == nil {
		t.Fatal("Insert after sticky error returned nil")
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("refused write reached memory")
	}
	if err := m.UpdateAtomic(func(tx *Txn[uint64, uint64, struct{}]) { tx.Insert(4, 4) }); err == nil {
		t.Fatal("single-shard UpdateAtomic after sticky error returned nil")
	}
	if _, ok := m.Get(4); ok {
		t.Fatal("refused UpdateAtomic reached memory")
	}
	if err := m.UpdateAtomic(func(tx *Txn[uint64, uint64, struct{}]) { tx.Insert(5, 5); tx.Insert(6, 6) }); err == nil {
		t.Fatal("UpdateAtomic after sticky error returned nil")
	}
}

// TestShardCloseIdempotent: double Close, concurrent Close, and Close
// racing in-flight operations must not panic; late arrivals get ErrClosed.
func TestShardCloseIdempotent(t *testing.T) {
	fs := wal.NewMemFS()
	m, _ := newWALMap(t, 4, fs)
	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := uint64(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(w)*1000 + n%100
				if err := m.Insert(k, n); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Insert: %v", err)
					}
					return
				}
				m.Get(k)
				if err := m.UpdateAtomic(func(tx *Txn[uint64, uint64, struct{}]) { tx.Insert(k+1, n) }); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("UpdateAtomic: %v", err)
					return
				}
			}
		}(w)
	}
	// Several goroutines race Close itself.
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			if err := m.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	cwg.Wait()
	close(stop)
	wg.Wait()

	// Everything after Close observes the closed state, not a panic.
	if err := m.Insert(1, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: %v, want ErrClosed", err)
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("Get after Close returned a value")
	}
	ran := false
	m.View(func(Snap[uint64, uint64, struct{}]) { ran = true })
	if ran {
		t.Fatal("View ran its callback after Close")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if live := m.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close", live)
	}
}

// TestShardWALGroupCommitConcurrent hammers logged point writes from many
// goroutines under -race and verifies recovery holds every acked write.
func TestShardWALGroupCommitConcurrent(t *testing.T) {
	fs := wal.NewMemFS()
	m, _ := newWALMap(t, 4, fs)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < per; n++ {
				k := uint64(w*per + n)
				if err := m.Insert(k, k+1); err != nil {
					t.Errorf("Insert(%d): %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _ := reopenWALMap(t, 4, fs)
	defer m2.Close()
	for k := uint64(0); k < workers*per; k++ {
		if v, ok := m2.Get(k); !ok || v != k+1 {
			t.Fatalf("key %d: recovered (%d, %v), want (%d, true)", k, v, ok, k+1)
		}
	}
}

// TestShardWALCrashTail: a power cut after acked writes loses nothing; a
// torn unsynced tail is dropped cleanly, never half-applied.
func TestShardWALCrashTail(t *testing.T) {
	for _, torn := range []int{0, 5} {
		t.Run(fmt.Sprintf("torn=%d", torn), func(t *testing.T) {
			fs := wal.NewMemFS()
			m, _ := newWALMap(t, 2, fs)
			for k := uint64(0); k < 20; k++ {
				if err := m.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			// Power cut: no Close, just drop unsynced state (+ torn bytes).
			fs.Crash(torn)
			m2, _ := reopenWALMap(t, 2, fs)
			defer m2.Close()
			// FsyncAlways: every acked write was synced before Insert
			// returned, so all 20 must be present.
			for k := uint64(0); k < 20; k++ {
				if v, ok := m2.Get(k); !ok || v != k {
					t.Fatalf("acked key %d lost (got %d, %v)", k, v, ok)
				}
			}
			_ = m // leaked on purpose: the "crashed" process's map is dead
		})
	}
}

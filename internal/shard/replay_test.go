package shard

import (
	"testing"

	"mvgc/internal/ftree"
	"mvgc/internal/wal"
)

// replayMap is a logged 2-shard map of keys 0..n-1 for the replay tests,
// with a segment large enough that relogging never rolls one.
func replayMap(t *testing.T, n int) *Map[uint64, uint64, struct{}] {
	t.Helper()
	log, rec, err := wal.Open(wal.Options{Dir: "wal", FS: wal.NewMemFS(), SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]ftree.Entry[uint64, uint64], n)
	for i := range initial {
		initial[i] = ftree.Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
	}
	m, err := openU64Map(2, initial, u64WAL(log), rec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestReplayRecordNoAlloc is the follower's apply gate: a warm replay of a
// steady record — 16 overwrites over both shards, one atomic commit,
// relogged — plans into a pooled Txn and allocates nothing.
func TestReplayRecordNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := replayMap(t, 1000)
	a := Applier(m)
	e := &walEnc[uint64, uint64]{cfg: &m.wal.cfg}
	gsn, v := CommitGSN(m), uint64(0)
	replay := func() {
		e.buf, v = e.buf[:0], v+1
		for k := uint64(0); k < 16; k++ {
			e.appendInsert(k*61%1000, v)
		}
		gsn++
		if err := a.ReplayRecord(gsn, e.buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ { // warm the magazines and the pool
		replay()
	}
	if allocs := testing.AllocsPerRun(1000, replay); allocs != 0 {
		t.Fatalf("a warm replay of a 16-op record allocates %.2f times", allocs)
	}
	if got, ok := m.Get(15 * 61 % 1000); !ok || got != v {
		t.Fatalf("key %d reads %d, %v after the replays; want %d", 15*61%1000, got, ok, v)
	}
}

// TestReplayBulkRecordNotPooled: a bulk record — parallel legs of 3 000
// entries a shard — is replayed through a pooled Txn, which returns to the
// pool without the buffers it grew: no pooled Txn keeps a shard's intents
// or a replay scratch past steadyIntents.
func TestReplayBulkRecordNotPooled(t *testing.T) {
	m := replayMap(t, 6000)
	e := &walEnc[uint64, uint64]{cfg: &m.wal.cfg}
	for k := uint64(0); k < 6000; k++ {
		e.appendInsert(k, k+1)
	}
	for k := uint64(0); k < 2*steadyIntents; k += 2 { // a run of deletes on shard 0
		e.appendDelete(k)
	}
	if err := Applier(m).ReplayRecord(CommitGSN(m)+1, e.buf); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Get(5999); !ok || got != 6000 {
		t.Fatalf("key 5999 reads %d, %v after the bulk replay; want 6000", got, ok)
	}
	for i := 0; i < 8; i++ {
		tx := m.getTxn()
		for s, list := range tx.intents {
			if cap(list) > steadyIntents {
				t.Fatalf("a pooled Txn keeps %d intents of shard %d", cap(list), s)
			}
		}
		for _, sc := range append(tx.legs, tx.scratch) {
			if cap(sc.keys) > steadyIntents || cap(sc.entries) > steadyIntents {
				t.Fatalf("a pooled Txn keeps a replay scratch of %d keys, %d entries", cap(sc.keys), cap(sc.entries))
			}
		}
	}
}

// TestBulkEncoderNotPooled: a bulk write encodes its record, and each
// parallel leg its share, in pooled encoders grown past wal.RunWindow;
// none of them goes back to the pool, and a later point write is encoded
// into a buffer of the steady size.
func TestBulkEncoderNotPooled(t *testing.T) {
	m := replayMap(t, 0)
	batch := make([]ftree.Entry[uint64, uint64], 40_000) // ≈ 760 KB of record
	for i := range batch {
		batch[i] = ftree.Entry[uint64, uint64]{Key: uint64(i), Val: 1}
	}
	if err := m.InsertBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if e := m.wal.getEnc(); cap(e.buf) > wal.RunWindow {
			t.Fatalf("the encoder pool hands out a %d-byte buffer a bulk record grew", cap(e.buf))
		}
	}
}

package mvgc_test

import (
	"testing"
	"time"

	"mvgc"
	"mvgc/internal/wal"
)

// TestCheckpointerBoundsLog is the checkpoint-scheduling acceptance test:
// under a sustained write storm, the background checkpointer keeps the
// log's live bytes under 2x CheckpointBytes — the directory footprint
// (and the prefix a replication follower must bootstrap) stays bounded
// no matter how long the storm runs.
func TestCheckpointerBoundsLog(t *testing.T) {
	const (
		ckptBytes = 256 << 10
		segBytes  = 32 << 10
	)
	mem := wal.NewMemFS()
	db, err := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{
		Shards: 4, Procs: 4,
		WAL: &mvgc.WALOptions{
			Dir: "wal", FS: mem,
			SegmentBytes:    segBytes,
			CheckpointBytes: ckptBytes,
			CheckpointAge:   4 * time.Millisecond, // poll at the 1ms floor
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Storm: ~2 MiB of log appends (far past the bound), paced so the
	// MemFS cannot outrun the checkpointer by more than a poll's worth —
	// the bound is on scheduling, not on beating an in-memory disk in a
	// footrace.
	var peak int64
	start := db.WALStats().Appended
	for i := uint64(0); db.WALStats().Appended-start < 2<<20; i++ {
		if err := db.Insert(i%512, i); err != nil {
			t.Fatal(err)
		}
		if i%128 == 127 {
			time.Sleep(500 * time.Microsecond)
		}
		if live := db.WALStats().LiveBytes; live > peak {
			peak = live
		}
	}
	st := db.WALStats()
	if st.SnapshotCut == 0 {
		t.Fatal("checkpointer never ran during the storm")
	}
	if peak >= 2*ckptBytes {
		t.Fatalf("live log peaked at %d bytes, want < %d (2x CheckpointBytes)", peak, 2*ckptBytes)
	}
	t.Logf("storm: appended %d bytes total, live peaked at %d (bound %d), cut %d",
		st.Appended-start, peak, 2*ckptBytes, st.SnapshotCut)
}

// TestCheckpointerIdleNoChurn: an idle database is never re-snapshotted —
// the age trigger requires appended growth, so a quiet log costs zero
// filesystem traffic.
func TestCheckpointerIdleNoChurn(t *testing.T) {
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	db, err := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{
		Shards: 2,
		WAL: &mvgc.WALOptions{
			Dir: "wal", FS: ffs,
			CheckpointAge: 2 * time.Millisecond,
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// One batch, one GSN: the first age-triggered checkpoint covers all of
	// it, so no second, legitimate checkpoint can land in the idle window.
	entries := make([]mvgc.Entry[uint64, uint64], 64)
	for i := range entries {
		entries[i] = mvgc.Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
	}
	if err := db.InsertBatch(entries, nil); err != nil {
		t.Fatal(err)
	}
	// Wait for the age trigger to fold the write into a snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for db.WALStats().SnapshotCut != db.CommitGSN() {
		if time.Now().After(deadline) {
			t.Fatal("age-triggered checkpoint never happened")
		}
		time.Sleep(time.Millisecond)
	}
	// Idle: no appends => no further checkpoints => no filesystem ops.
	ops := ffs.Ops()
	time.Sleep(25 * time.Millisecond)
	if got := ffs.Ops(); got != ops {
		t.Fatalf("idle checkpointer did %d filesystem ops", got-ops)
	}
}

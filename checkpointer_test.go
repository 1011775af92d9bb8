package mvgc_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvgc"
	"mvgc/internal/shard"
	"mvgc/internal/wal"
)

// snapFS counts the checkpoints installed on the filesystem it wraps
// (renames onto a ck-*.snap file) and every file it creates; with slow
// set, each snapshot file's fsync takes that long.
type snapFS struct {
	wal.FS
	slow           time.Duration
	snaps, creates atomic.Int64
}

func (f *snapFS) Create(name string) (wal.File, error) {
	f.creates.Add(1)
	file, err := f.FS.Create(name)
	if err == nil && f.slow > 0 && strings.HasSuffix(name, "ck.tmp") {
		file = slowSync{file, f.slow}
	}
	return file, err
}

func (f *snapFS) Rename(oldname, newname string) error {
	if strings.HasSuffix(newname, ".snap") {
		f.snaps.Add(1)
	}
	return f.FS.Rename(oldname, newname)
}

type slowSync struct {
	wal.File
	d time.Duration
}

func (s slowSync) Sync() error {
	time.Sleep(s.d)
	return s.File.Sync()
}

// closeNoLeak closes db and fails unless every tree node it allocated was
// freed: a checkpoint still pinning a version after Close would show here.
func closeNoLeak(t *testing.T, db *mvgc.DB[uint64, uint64, struct{}]) {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if live := db.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
}

// storm inserts into db until the log has grown by bytes, paced so the
// MemFS cannot outrun the checkpointer by more than one checkpoint's worth
// (the bound is on scheduling, not on beating an in-memory disk in a
// footrace), and returns the peak of the log's live bytes.
func storm(t *testing.T, db *mvgc.DB[uint64, uint64, struct{}], bytes int64) (peak int64) {
	t.Helper()
	start := db.WALStats().Appended
	for i := uint64(0); db.WALStats().Appended-start < bytes; i++ {
		if err := db.Insert(i%512, i); err != nil {
			t.Fatal(err)
		}
		if i%128 == 127 {
			time.Sleep(500 * time.Microsecond)
		}
		peak = max(peak, db.WALStats().LiveBytes)
	}
	return peak
}

// TestCheckpointerBoundsLog is the checkpoint-scheduling acceptance test:
// under a sustained write storm, the checkpoints keep the log's live bytes
// under 2x CheckpointBytes — the directory footprint (and the prefix a
// replication follower must bootstrap) stays bounded no matter how long
// the storm runs.
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
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Storm: ~2 MiB of log appends, far past the bound.
	peak := storm(t, db, 2<<20)
	st := db.WALStats()
	if st.SnapshotCut == 0 {
		t.Fatal("checkpointer never ran during the storm")
	}
	if peak >= 2*ckptBytes {
		t.Fatalf("live log peaked at %d bytes, want < %d (2x CheckpointBytes)", peak, 2*ckptBytes)
	}
	t.Logf("storm: appended %d bytes total, live peaked at %d (bound %d), cut %d",
		st.Appended, peak, 2*ckptBytes, st.SnapshotCut)
	closeNoLeak(t, db)
}

// TestCheckpointerDefaultSegments: with CheckpointBytes set and no
// SegmentBytes, the segment size is derived from the bound, because only
// sealed segments retire — 64 MiB segments would let the live log grow
// without limit while every checkpoint retired nothing.  And checkpoints
// follow growth: about one per CheckpointBytes appended, not one per poll.
func TestCheckpointerDefaultSegments(t *testing.T) {
	const ckptBytes = 256 << 10
	fs := &snapFS{FS: wal.NewMemFS()}
	db, err := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{
		Shards: 4, Procs: 4,
		WAL: &mvgc.WALOptions{Dir: "wal", FS: fs, CheckpointBytes: ckptBytes},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	peak := storm(t, db, 2<<20)
	st := db.WALStats()
	closeNoLeak(t, db)
	snaps := fs.snaps.Load()
	t.Logf("appended %d bytes, live peaked at %d (bound %d), %d checkpoints",
		st.Appended, peak, 2*ckptBytes, snaps)
	if peak >= 2*ckptBytes {
		t.Fatalf("live log peaked at %d bytes, want < %d (2x CheckpointBytes)", peak, 2*ckptBytes)
	}
	if limit := st.Appended/ckptBytes + 2; snaps == 0 || snaps > limit {
		t.Fatalf("%d checkpoints for %d bytes appended, want 1..%d", snaps, st.Appended, limit)
	}
}

// TestCheckpointerCloseInStorm: Close during a write storm with a small
// CheckpointBytes returns, waiting for a checkpoint in flight; no
// checkpoint starts after it, and nothing stays pinned.  Each snapshot's
// fsync takes 10ms, so checkpoints run back to back and Close lands in one.
func TestCheckpointerCloseInStorm(t *testing.T) {
	fs := &snapFS{FS: wal.NewMemFS(), slow: 10 * time.Millisecond}
	db, err := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{
		Shards: 4, Procs: 4,
		WAL: &mvgc.WALOptions{Dir: "wal", FS: fs, Fsync: "off", CheckpointBytes: 4 << 10},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := uint64(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i += 4 {
				if err := db.Insert(i%4096, i); err != nil {
					if !errors.Is(err, mvgc.ErrClosed) {
						t.Error(err)
					}
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for fs.snaps.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("the storm took fewer than 3 checkpoints")
		}
		time.Sleep(time.Millisecond)
	}
	closeNoLeak(t, db)
	snaps, creates := fs.snaps.Load(), fs.creates.Load()
	wg.Wait()
	time.Sleep(20 * time.Millisecond)
	if s, c := fs.snaps.Load(), fs.creates.Load(); s != snaps || c != creates {
		t.Fatalf("after Close: %d more checkpoints, %d more files created", s-snaps, c-creates)
	}
	if live := db.Live(); live != 0 {
		t.Fatalf("Live() = %d once the writers returned, want 0", live)
	}
}

// TestCheckpointerIdleNoChurn: an idle database is never re-snapshotted —
// a checkpoint starts only from a commit that grows the log, so a quiet
// log costs zero filesystem traffic.
func TestCheckpointerIdleNoChurn(t *testing.T) {
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	db, err := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{
		Shards: 2,
		WAL: &mvgc.WALOptions{
			Dir: "wal", FS: ffs,
			CheckpointBytes: 1 << 10,
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One batch, one GSN, one record past the bound: the checkpoint it
	// starts covers all of it, so no second one can land in the idle window.
	entries := make([]mvgc.Entry[uint64, uint64], 64)
	for i := range entries {
		entries[i] = mvgc.Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
	}
	if err := db.InsertBatch(entries, nil); err != nil {
		t.Fatal(err)
	}
	// Wait for the checkpoint to fold the write into a snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for db.WALStats().SnapshotCut != shard.CommitGSN(db) {
		if time.Now().After(deadline) {
			t.Fatal("growth-started checkpoint never happened")
		}
		time.Sleep(time.Millisecond)
	}
	// Idle: no appends => no further checkpoints => no filesystem ops.
	ops := ffs.Ops()
	time.Sleep(25 * time.Millisecond)
	if got := ffs.Ops(); got != ops {
		t.Fatalf("idle checkpointer did %d filesystem ops", got-ops)
	}
	closeNoLeak(t, db)
}

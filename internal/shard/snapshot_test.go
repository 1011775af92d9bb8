package shard

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mvgc/internal/ftree"
	"mvgc/internal/wal"
)

// snapshotPayload encodes entries keys[i] = val(keys[i]) as a checkpoint
// payload, the way Checkpoint writes one.
func snapshotPayload(lo, hi uint64, val func(k uint64) uint64) []byte {
	enc, dec := u64Codec()
	e := &walEnc[uint64, uint64]{cfg: &WALConfig[uint64, uint64]{EncKey: enc, DecKey: dec, EncVal: enc, DecVal: dec}}
	for k := lo; k < hi; k++ {
		e.appendInsert(k, val(k))
	}
	return e.buf
}

// TestSnapshotLoadIsOneVersion: a follower serves reads while it follows, so
// a re-bootstrap under ViewConsistent readers must show each of them the old
// snapshot or the new one, never a mix.  The two snapshots overlap on half
// their keys with different values; every entry a reader sees must belong to
// the same one of them, and all of that one must be there.
func TestSnapshotLoadIsOneVersion(t *testing.T) {
	m, _ := newWALMap(t, 4, wal.NewMemFS())
	defer m.Close()
	const n = 5000
	valA := func(uint64) uint64 { return 2 }
	valB := func(k uint64) uint64 { return 1 + 2*(k/n) } // 1 on the overlap, 3 past it
	snaps := [2][]byte{snapshotPayload(0, n, valA), snapshotPayload(n/2, n/2+n, valB)}
	if err := m.ApplyReplSnapshot(1, snaps[0]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var a, b, total int
				m.ViewConsistent(func(s Snap[uint64, uint64, struct{}]) {
					s.ForEach(func(k, v uint64) {
						total++
						if k < n && v == valA(k) {
							a++
						}
						if k >= n/2 && k < n/2+n && v == valB(k) {
							b++
						}
					})
				})
				if total != n || (a != n && b != n) {
					t.Errorf("a reader saw %d entries, %d of snapshot A and %d of snapshot B: a mix", total, a, b)
					return
				}
			}
		}()
	}
	for round := uint64(1); round <= 40 && !t.Failed(); round++ {
		if err := m.ApplyReplSnapshot(1+round, snaps[round%2]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotLoadIsACheckpoint: a shipped snapshot larger than the log may
// ever be (MaxBytes) loads, because it lands as the map's own checkpoint file
// and not as log records — nothing is appended, every sealed segment
// retires, the stamp source moves by one — and the directory recovers to it.
// A load that cannot happen leaves what was there.
func TestSnapshotLoadIsACheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	open := func() *Map[uint64, uint64, struct{}] {
		log, rec, err := wal.Open(wal.Options{Dir: "wal", FS: fs, SegmentBytes: 1 << 16, MaxBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		enc, dec := u64Codec()
		m := newU64Map(t, 4, nil)
		if err := m.AttachWAL(WALConfig[uint64, uint64]{Log: log, EncKey: enc, DecKey: dec, EncVal: enc, DecVal: dec}, rec); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := open()
	// Old contents, none of them in the snapshot, spread over sealed segments.
	for lo := uint64(0); lo < 4000; lo += 500 {
		batch := make([]ftree.Entry[uint64, uint64], 500)
		for i := range batch {
			batch[i] = ftree.Entry[uint64, uint64]{Key: 1<<32 + lo + uint64(i), Val: 7}
		}
		if err := m.InsertBatch(batch, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.WALStats(); st.Segments < 2 {
		t.Fatalf("the old contents fill %d segment, want sealed ones to retire", st.Segments)
	}

	const n = 100_000
	val := func(k uint64) uint64 { return k * 3 }
	payload := snapshotPayload(0, n, val)
	before, gsn := m.WALStats(), m.CommitGSN()
	if int64(len(payload)) <= 1<<20 {
		t.Fatalf("the snapshot is %d bytes, want more than the log's MaxBytes", len(payload))
	}
	if err := m.ApplyReplSnapshot(gsn, payload); err != nil {
		t.Fatalf("loading a %d-byte snapshot beside a %d-byte log bound: %v", len(payload), 1<<20, err)
	}
	after := m.WALStats()
	if after.Appended != before.Appended || after.Segments != 1 || after.SnapshotCut != gsn+1 || m.CommitGSN() != gsn+1 {
		t.Fatalf("after the load: %d record bytes appended, %d segments, checkpoint cut %d, CommitGSN %d; want 0, 1, %d, %d",
			after.Appended-before.Appended, after.Segments, after.SnapshotCut, m.CommitGSN(), gsn+1, gsn+1)
	}
	names, err := fs.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	var snaps int
	for _, name := range names {
		if strings.HasSuffix(name, ".snap") {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d checkpoint files in %v, want 1", snaps, names)
	}
	holdsSnapshot := func(when string, m *Map[uint64, uint64, struct{}]) {
		t.Helper()
		got := dump(m)
		if len(got) != n {
			t.Fatalf("%s: %d keys, want the snapshot's %d", when, len(got), n)
		}
		for k, v := range got {
			if k >= n || v != val(k) {
				t.Fatalf("%s: key %d = %d is not the snapshot's", when, k, v)
			}
		}
	}
	holdsSnapshot("after the load", m)

	if err := m.ApplyReplSnapshot(gsn+9, payload[:len(payload)-3]); err == nil {
		t.Fatal("a truncated payload loaded")
	}
	holdsSnapshot("after a payload that does not decode", m)
	if m.CommitGSN() != gsn+1 {
		t.Fatalf("a failed load moved CommitGSN to %d", m.CommitGSN())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyReplSnapshot(gsn+9, payload); !errors.Is(err, ErrClosed) {
		t.Fatalf("load into a closed map: %v, want ErrClosed", err)
	}

	m = open()
	defer m.Close()
	holdsSnapshot("recovered", m)
}

// TestSnapshotLoadKeepsPinnedVersion is the paper's property on the load
// path: the replaced contents are just the previous version.  A reader
// pinned before the load still sees every old key; when it lets go the old
// version is collected at once — each shard's live nodes are exactly those
// reachable from its new root — and Close leaves nothing.
func TestSnapshotLoadKeepsPinnedVersion(t *testing.T) {
	m, _ := newWALMap(t, 4, wal.NewMemFS())
	const n = 3000
	old := make([]ftree.Entry[uint64, uint64], n)
	for i := range old {
		old[i] = ftree.Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i) + 1}
	}
	if err := m.InsertBatch(old, nil); err != nil {
		t.Fatal(err)
	}
	pinned, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		m.View(func(s Snap[uint64, uint64, struct{}]) {
			close(pinned)
			<-release
			for k := uint64(0); k < n; k++ {
				if v, ok := s.Get(k); !ok || v != k+1 {
					t.Errorf("pinned reader: key %d = (%d, %v) after the load, want %d", k, v, ok, k+1)
					return
				}
			}
			if s.Len() != n {
				t.Errorf("pinned reader sees %d keys after the load, want %d", s.Len(), n)
			}
		})
	}()
	<-pinned
	gsn := m.CommitGSN()
	if err := m.ApplyReplSnapshot(gsn, snapshotPayload(n, 2*n, func(k uint64) uint64 { return k })); err != nil {
		t.Fatal(err)
	}
	if m.CommitGSN() != gsn+1 {
		t.Fatalf("the load moved CommitGSN %d -> %d, want one stamp", gsn, m.CommitGSN())
	}
	if _, ok := m.Get(0); ok || m.Len() != n {
		t.Fatalf("a new reader sees key 0 = %v among %d keys, want the snapshot's %d", ok, m.Len(), n)
	}
	close(release)
	<-done
	m.View(func(s Snap[uint64, uint64, struct{}]) {
		for i := 0; i < m.NumShards(); i++ {
			ops := m.Shard(i).Ops()
			if live, reach := ops.Live(), ops.ReachableNodes(s.Shard(i).Root()); live != reach {
				t.Errorf("shard %d: %d live nodes, %d reachable from the loaded root", i, live, reach)
			}
		}
	})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if live := m.Live(); live != 0 {
		t.Fatalf("%d nodes live after Close", live)
	}
}

// TestSnapshotLoadRestartsCheckpointGrowth: a shipped snapshot is the
// follower's own checkpoint, so what it replayed before the load does not
// count toward the next one — no checkpoint starts until CheckpointBytes
// more have been replayed, and then one does.
func TestSnapshotLoadRestartsCheckpointGrowth(t *testing.T) {
	const ckptBytes = 4 << 10
	log, _, err := wal.Open(wal.Options{Dir: "wal", FS: wal.NewMemFS(), SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := u64Codec()
	m := newU64Map(t, 2, nil)
	cfg := WALConfig[uint64, uint64]{Log: log, EncKey: enc, DecKey: dec, EncVal: enc, DecVal: dec, CheckpointBytes: ckptBytes}
	if err := m.AttachWAL(cfg, nil); err != nil {
		t.Fatal(err)
	}
	val := func(k uint64) uint64 { return k * 7 }
	var gsn uint64
	replay := func(bytes int64) {
		t.Helper()
		start := m.WALStats().Appended
		for m.WALStats().Appended-start < bytes {
			gsn++
			if err := m.ReplayRecord(gsn, snapshotPayload(gsn, gsn+1, val)); err != nil {
				t.Fatal(err)
			}
		}
	}
	idle := func(when string, cut uint64) {
		t.Helper()
		if m.wal.ckptBusy.Load() || m.WALStats().SnapshotCut != cut {
			t.Fatalf("%s: a checkpoint started (checkpoint cut %d, want %d)", when, m.WALStats().SnapshotCut, cut)
		}
	}
	replay(ckptBytes * 3 / 4)
	idle("before the load", 0)
	if err := m.ApplyReplSnapshot(gsn, snapshotPayload(0, gsn+1, val)); err != nil {
		t.Fatal(err)
	}
	loaded := m.WALStats().SnapshotCut
	replay(ckptBytes * 3 / 4)
	idle("3/4 of CheckpointBytes after the load", loaded)
	replay(ckptBytes / 2)
	deadline := time.Now().Add(5 * time.Second)
	for m.WALStats().SnapshotCut == loaded {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint after CheckpointBytes had been replayed past the load")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if live := m.Live(); live != 0 {
		t.Fatalf("%d nodes live after Close", live)
	}
}

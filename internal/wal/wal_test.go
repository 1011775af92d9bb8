package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openMem(t *testing.T, fs FS, opts Options) (*Log, *Recovered) {
	t.Helper()
	opts.FS = fs
	if opts.Dir == "" {
		opts.Dir = "db"
	}
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func appendCommit(t *testing.T, l *Log, gsn uint64, payload string) {
	t.Helper()
	if err := l.Append(gsn, []byte(payload)); err != nil {
		t.Fatalf("Append(%d): %v", gsn, err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit(%d): %v", gsn, err)
	}
}

// TestRoundTrip: appended records come back in GSN order across segments.
func TestRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, rec := openMem(t, fs, Options{SegmentBytes: 64}) // tiny: force rotations
	if rec.MaxGSN != 0 || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	// Deliberately out-of-order GSNs: per-shard commit order is only
	// locally monotone, recovery must sort globally.
	gsns := []uint64{2, 1, 5, 3, 4, 9, 7, 6, 8, 10}
	for _, g := range gsns {
		appendCommit(t, l, g, fmt.Sprintf("v%d", g))
	}
	if st := l.Stat(); st.Segments < 2 {
		t.Fatalf("expected rotations at SegmentBytes=64, got %d segments", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec := openMem(t, fs, Options{SegmentBytes: 64})
	defer l2.Close()
	if rec.MaxGSN != 10 {
		t.Fatalf("MaxGSN = %d, want 10", rec.MaxGSN)
	}
	if len(rec.Records) != len(gsns) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(gsns))
	}
	for i, r := range rec.Records {
		want := uint64(i + 1)
		if r.GSN != want || string(r.Payload) != fmt.Sprintf("v%d", want) {
			t.Fatalf("record %d = (%d, %q)", i, r.GSN, r.Payload)
		}
	}
}

// TestTornTail: unsynced bytes left by a crash are truncated, synced
// records survive.
func TestTornTail(t *testing.T) {
	for torn := 0; torn < 24; torn++ {
		fs := NewMemFS()
		l, _ := openMem(t, fs, Options{})
		appendCommit(t, l, 1, "acked")
		// Appended but never committed: may tear.
		if err := l.Append(2, []byte("unacked")); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Sync(); err != nil { // flush to the file...
			t.Fatalf("Sync: %v", err)
		}
		fs.Crash(torn) // ...but torn tails model partial page flushes

		_, rec, err := Open(Options{Dir: "db", FS: fs})
		if err != nil {
			t.Fatalf("torn=%d: Open: %v", torn, err)
		}
		if len(rec.Records) < 1 || string(rec.Records[0].Payload) != "acked" {
			t.Fatalf("torn=%d: acked record lost: %+v", torn, rec.Records)
		}
		for _, r := range rec.Records[1:] {
			if string(r.Payload) != "unacked" {
				t.Fatalf("torn=%d: phantom record %q", torn, r.Payload)
			}
		}
	}
}

// TestTornTailMidFrame corrupts synced bytes' tail directly: only the
// valid prefix comes back.
func TestTornTailMidFrame(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{})
	appendCommit(t, l, 1, "first")
	appendCommit(t, l, 2, "second")
	l.Close()

	// Chop bytes off the tail of the (single) segment one at a time.
	name := filepath.Join("db", segName(1))
	fs.mu.Lock()
	full := append([]byte(nil), fs.files[name].data...)
	fs.mu.Unlock()
	for cut := len(full) - 1; cut > len(segMagic); cut-- {
		fs.mu.Lock()
		fs.files[name].data = append([]byte(nil), full[:cut]...)
		fs.files[name].synced = cut
		fs.mu.Unlock()
		l2, rec, err := Open(Options{Dir: "db", FS: fs})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		l2.Close()
		for _, r := range rec.Records {
			want := "first"
			if r.GSN == 2 {
				want = "second"
			}
			if string(r.Payload) != want {
				t.Fatalf("cut=%d: record %d = %q", cut, r.GSN, r.Payload)
			}
		}
		// Clean up the fresh segments Open created so the next iteration
		// sees only the corrupted one.
		names, _ := fs.ReadDir("db")
		for _, n := range names {
			if n != segName(1) {
				fs.Remove(filepath.Join("db", n))
			}
		}
	}
}

// TestRecoverAfterHeaderTornCrash: a crash between segment creation and
// its first fsync leaves a durable zero/partial-header segment.  Recovery
// must remove it — keeping a truncated-to-empty segment bricked every
// later Open with "torn frame in non-final segment" once a new segment
// was created after it.
func TestRecoverAfterHeaderTornCrash(t *testing.T) {
	for torn := 0; torn <= len(segMagic); torn++ {
		fs := NewMemFS()
		openMem(t, fs, Options{}) // creates seg-1: entry SyncDir'd, header never fsynced
		fs.Crash(torn)            // durable entry, 0..len(segMagic) header bytes

		l, _ := openMem(t, fs, Options{}) // recovery #1 must clean up, not truncate-to-empty
		appendCommit(t, l, 1, "v1")
		if err := l.Close(); err != nil {
			t.Fatalf("torn=%d: Close: %v", torn, err)
		}

		l2, rec := openMem(t, fs, Options{}) // the review's bricked Open
		l2.Close()
		if len(rec.Records) != 1 || rec.Records[0].GSN != 1 || string(rec.Records[0].Payload) != "v1" {
			t.Fatalf("torn=%d: acked record lost after headerless-segment cleanup: %+v", torn, rec.Records)
		}
	}
}

// TestEmptyNonFinalSegmentTolerated: a header-sized-or-smaller non-final
// segment (a headerless-segment removal that did not survive a power cut)
// is cleaned up, while a larger magic-less non-final segment is real
// corruption and still fails Open.
func TestEmptyNonFinalSegmentTolerated(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{})
	appendCommit(t, l, 1, "v1")
	l.Close()

	// Plant an empty durable segment below the real one.
	empty := filepath.Join("db", segName(0))
	if f, err := fs.Create(empty); err != nil {
		t.Fatalf("Create: %v", err)
	} else {
		f.Close()
	}
	fs.SyncDir("db")

	l2, rec := openMem(t, fs, Options{})
	l2.Close()
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "v1" {
		t.Fatalf("records after empty-segment cleanup: %+v", rec.Records)
	}
	if names, _ := fs.ReadDir("db"); func() bool {
		for _, n := range names {
			if n == segName(0) {
				return true
			}
		}
		return false
	}() {
		t.Fatalf("empty segment not removed: %v", names)
	}

	// A magic-less non-final segment LARGER than the header cannot be a
	// creation artifact: Open must refuse it.
	if f, err := fs.Create(empty); err != nil {
		t.Fatalf("Create: %v", err)
	} else {
		f.Write([]byte("garbage-not-magic")) //nolint:errcheck
		f.Sync()                             //nolint:errcheck
		f.Close()
	}
	fs.SyncDir("db")
	if _, _, err := Open(Options{Dir: "db", FS: fs}); err == nil {
		t.Fatal("Open accepted a corrupt non-final segment")
	}
	fs.Remove(empty)
}

// snapFailFS fails reads of one file by name; FaultFS deliberately never
// injects on the read side, so snapshot I/O errors need their own shim.
type snapFailFS struct {
	FS
	base string
}

func (f snapFailFS) Open(name string) (File, error) {
	if filepath.Base(name) == f.base {
		return nil, errors.New("injected read failure")
	}
	return f.FS.Open(name)
}

// TestSnapshotReadErrorFailsOpen: an I/O error reading the newest
// snapshot must fail Open — deleting it as "invalid" would silently lose
// every acked write it covers, since the checkpoint already retired the
// segments (and older snapshot) below its cut.
func TestSnapshotReadErrorFailsOpen(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{})
	appendCommit(t, l, 7, "v7")
	if err := l.Checkpoint(7, []byte("snap@7")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	l.Close()

	snap := snapName(1)
	if _, _, err := Open(Options{Dir: "db", FS: snapFailFS{FS: fs, base: snap}}); err == nil {
		t.Fatal("Open succeeded despite unreadable snapshot")
	}
	names, _ := fs.ReadDir("db")
	present := false
	for _, n := range names {
		if n == snap {
			present = true
		}
	}
	if !present {
		t.Fatalf("snapshot deleted after transient read error: %v", names)
	}

	// The error really was transient: a plain reopen recovers the cut.
	_, rec, err := Open(Options{Dir: "db", FS: fs})
	if err != nil {
		t.Fatalf("Open after transient error: %v", err)
	}
	if rec.SnapshotCut != 7 || string(rec.Snapshot) != "snap@7" {
		t.Fatalf("snapshot = (%d, %q)", rec.SnapshotCut, rec.Snapshot)
	}
}

// TestCheckpointRetires: a checkpoint removes superseded segments and
// snapshots, and recovery starts from the snapshot.
func TestCheckpointRetires(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{SegmentBytes: 64})
	for g := uint64(1); g <= 8; g++ {
		appendCommit(t, l, g, fmt.Sprintf("v%d", g))
	}
	if err := l.Checkpoint(6, []byte("snap@6")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for g := uint64(9); g <= 10; g++ {
		appendCommit(t, l, g, fmt.Sprintf("v%d", g))
	}
	if err := l.Checkpoint(8, []byte("snap@8")); err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	l.Close()

	names, _ := fs.ReadDir("db")
	snaps := 0
	for _, n := range names {
		if _, ok := parseName(n, "ck-", ".snap"); ok {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("want 1 snapshot after second checkpoint, dir: %v", names)
	}

	_, rec, err := Open(Options{Dir: "db", FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec.SnapshotCut != 8 || string(rec.Snapshot) != "snap@8" {
		t.Fatalf("snapshot = (%d, %q)", rec.SnapshotCut, rec.Snapshot)
	}
	for _, r := range rec.Records {
		if r.GSN <= 8 {
			t.Fatalf("record %d not filtered by cut", r.GSN)
		}
	}
	if rec.MaxGSN != 10 {
		t.Fatalf("MaxGSN = %d", rec.MaxGSN)
	}
}

// TestSnapshotOnly: recovery from a checkpoint with no later records
// still reports the cut as MaxGSN (the GSN counter must resume above it).
func TestSnapshotOnly(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{})
	appendCommit(t, l, 41, "x")
	if err := l.Checkpoint(41, []byte("snap")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	l.Close()
	_, rec, err := Open(Options{Dir: "db", FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec.MaxGSN != 41 || len(rec.Records) != 0 {
		t.Fatalf("rec = %+v", rec)
	}
}

// TestWALFull: MaxBytes rejects appends without poisoning the log, and a
// checkpoint that retires segments clears the condition.
func TestWALFull(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{SegmentBytes: 64, MaxBytes: 256})
	var g uint64
	for {
		g++
		err := l.Append(g, bytes.Repeat([]byte("x"), 16))
		if errors.Is(err, ErrWALFull) {
			break
		}
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if g > 100 {
			t.Fatal("MaxBytes never enforced")
		}
	}
	if err := l.Err(); err != nil {
		t.Fatalf("ErrWALFull must not be sticky, got %v", err)
	}
	if err := l.Checkpoint(g, []byte("snap")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := l.Append(g+1, []byte("after")); err != nil {
		t.Fatalf("Append after checkpoint: %v", err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit after checkpoint: %v", err)
	}
	l.Close()
}

// TestStickyError: an fsync failure poisons the log; later appends and
// commits fail fast.
func TestStickyError(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	l, _ := openMem(t, ffs, Options{})
	appendCommit(t, l, 1, "ok")
	ffs.Script(ffs.Ops()+2, FaultErr) // next op is the append's Write, then its Sync
	if err := l.Append(2, []byte("doomed")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit = %v, want injected", err)
	}
	if err := l.Append(3, []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append after poison = %v", err)
	}
	if err := l.Err(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Err = %v", err)
	}
}

// TestGroupCommit: concurrent committers all return with their records
// durable; under -race this also exercises the leader/follower protocol.  A
// Tailer blocked in Next(true) follows them throughout, and a Close lands
// while a second round of committers is still at it: every CommitTo returns
// nil or ErrLogClosed and none hangs, and the Tailer reports ErrLogClosed
// only once it has shipped every record the log holds durably.
func TestGroupCommit(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{SegmentBytes: 1 << 10})
	tl, err := l.Tail(0, 0)
	if err != nil {
		t.Fatalf("Tail: %v", err)
	}
	defer tl.Close()
	type tailed struct {
		gsns []uint64
		err  error
	}
	tailDone := make(chan tailed, 1)
	go func() {
		var got []uint64
		for {
			recs, err := nextRecs(tl, true)
			if err != nil {
				tailDone <- tailed{got, err}
				return
			}
			got = append(got, gsns(recs)...)
		}
	}()
	waitFor := func(wg *sync.WaitGroup, what string) {
		t.Helper()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s hung", what)
		}
	}

	const writers, each = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				gsn := uint64(w*each + i + 1)
				if err := l.Append(gsn, []byte{byte(w)}); err != nil {
					errs <- err
					return
				}
				if err := l.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	waitFor(&wg, "committers")
	st := l.Stat()
	if st.Synced != st.Appended {
		t.Fatalf("synced %d < appended %d after all commits", st.Synced, st.Appended)
	}

	// Second round: committers run until Close stops them.  A record
	// appended before Close is durable once Close returns, whatever its
	// CommitTo said.
	var next, appended atomic.Int64
	next.Store(writers * each)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mark, err := l.AppendMark(uint64(next.Add(1)), []byte{byte(w)})
				if err == nil {
					appended.Add(1)
					err = l.CommitTo(mark)
				}
				if err != nil {
					if !errors.Is(err, ErrLogClosed) {
						errs <- err
					}
					return
				}
			}
		}(w)
	}
	for deadline := time.Now().Add(10 * time.Second); appended.Load() < 4*writers && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitFor(&wg, "committers after Close")
	close(errs)
	for err := range errs {
		t.Fatalf("writer: %v", err)
	}
	var got tailed
	select {
	case got = <-tailDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Tailer never returned after Close")
	}
	if !errors.Is(got.err, ErrLogClosed) {
		t.Fatalf("Tailer ended with %v, want ErrLogClosed", got.err)
	}

	_, rec, err := Open(Options{Dir: "db", FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := gsns(rec.Records)
	if n := writers*each + int(appended.Load()); len(want) != n {
		t.Fatalf("recovered %d records, want %d", len(want), n)
	}
	slices.Sort(got.gsns)
	if !slices.Equal(got.gsns, want) {
		t.Fatalf("Tailer shipped %d records before ErrLogClosed, the log holds %d", len(got.gsns), len(want))
	}
}

// TestLogCrashMatrix: crash at every write-side operation of a fixed
// workload; every committed record must survive, every surviving record
// must be one that was at least appended.
func TestLogCrashMatrix(t *testing.T) {
	// Dry run to learn the op count.
	workload := func(ffs *FaultFS) (acked []uint64, attempted []uint64) {
		l, _, err := Open(Options{Dir: "db", FS: ffs, SegmentBytes: 96})
		if err != nil {
			return nil, nil
		}
		defer l.Close()
		for g := uint64(1); g <= 12; g++ {
			if g == 7 {
				// Mid-workload checkpoint covering the first half.
				l.Checkpoint(4, []byte("snap@4")) //nolint:errcheck
			}
			attempted = append(attempted, g)
			if l.Append(g, []byte(fmt.Sprintf("v%d", g))) != nil {
				continue
			}
			if l.Commit() == nil {
				acked = append(acked, g)
			}
		}
		return acked, attempted
	}
	dry := NewFaultFS(NewMemFS())
	workload(dry)
	n := dry.Ops()
	if n < 20 {
		t.Fatalf("workload too small to be interesting: %d ops", n)
	}

	for op := 1; op <= n; op++ {
		for _, torn := range []int{0, 3} {
			mem := NewMemFS()
			ffs := NewFaultFS(mem)
			ffs.SetTorn(torn)
			ffs.Script(op, FaultCrash)
			acked, _ := workload(ffs)

			l1, rec, err := Open(Options{Dir: "db", FS: mem})
			if err != nil {
				t.Fatalf("op=%d torn=%d: recovery failed: %v", op, torn, err)
			}
			got := make(map[uint64]bool)
			if rec.Snapshot != nil {
				if string(rec.Snapshot) != "snap@4" {
					t.Fatalf("op=%d: bad snapshot %q", op, rec.Snapshot)
				}
				for g := uint64(1); g <= 4; g++ {
					got[g] = true
				}
			}
			for _, r := range rec.Records {
				if want := fmt.Sprintf("v%d", r.GSN); string(r.Payload) != want {
					t.Fatalf("op=%d torn=%d: record %d corrupt: %q", op, torn, r.GSN, r.Payload)
				}
				got[r.GSN] = true
			}
			for _, g := range acked {
				if !got[g] {
					t.Fatalf("op=%d torn=%d: acked record %d lost (have %v)", op, torn, g, got)
				}
			}
			if len(got) > 12 {
				t.Fatalf("op=%d torn=%d: phantom records: %v", op, torn, got)
			}
			// Recovery must leave a log that survives a full clean cycle:
			// append, close, reopen (regression for the headerless-segment
			// state that bricked every Open after recovery #1).
			if err := l1.Append(99, []byte("v99")); err != nil {
				t.Fatalf("op=%d torn=%d: append after recovery: %v", op, torn, err)
			}
			if err := l1.Commit(); err != nil {
				t.Fatalf("op=%d torn=%d: commit after recovery: %v", op, torn, err)
			}
			if err := l1.Close(); err != nil {
				t.Fatalf("op=%d torn=%d: close after recovery: %v", op, torn, err)
			}
			l2, rec2, err := Open(Options{Dir: "db", FS: mem})
			if err != nil {
				t.Fatalf("op=%d torn=%d: second recovery failed: %v", op, torn, err)
			}
			l2.Close()
			got2 := make(map[uint64]bool)
			if rec2.Snapshot != nil {
				for g := uint64(1); g <= 4; g++ {
					got2[g] = true
				}
			}
			for _, r := range rec2.Records {
				got2[r.GSN] = true
			}
			for _, g := range append(append([]uint64(nil), acked...), 99) {
				if !got2[g] {
					t.Fatalf("op=%d torn=%d: record %d lost across second recovery (have %v)", op, torn, g, got2)
				}
			}
		}
	}
}

// TestShortWrite: a short write is poisonous but recovery still sees the
// previously synced prefix.
func TestShortWrite(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	l, _ := openMem(t, ffs, Options{})
	appendCommit(t, l, 1, "good")
	ffs.Script(ffs.Ops()+1, FaultShortWrite)
	if err := l.Append(2, []byte("short")); err == nil {
		if err := l.Commit(); err == nil {
			t.Fatal("short write went unnoticed")
		}
	}
	_, rec, err := Open(Options{Dir: "db", FS: mem})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	found := false
	for _, r := range rec.Records {
		if r.GSN == 1 && string(r.Payload) == "good" {
			found = true
		}
	}
	if !found {
		t.Fatalf("synced record lost after short write: %+v", rec.Records)
	}
}

// TestParsePolicy covers the flag spellings: two policies, and anything
// else, "interval" among it, is refused by a message that names them.
func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"": FsyncAlways, "always": FsyncAlways, "off": FsyncOff} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"interval", "nope"} {
		_, err := ParsePolicy(s)
		if err == nil {
			t.Fatalf("ParsePolicy accepted %q", s)
		}
		if msg := err.Error(); !strings.Contains(msg, "always or off") {
			t.Fatalf("ParsePolicy(%q) error %q does not name the policies", s, msg)
		}
	}
}

// TestPolicies: off acks without an fsync; Close syncs it.
func TestPolicies(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{Policy: FsyncOff})
	for g := uint64(1); g <= 5; g++ {
		appendCommit(t, l, g, "v")
	}
	if st := l.Stat(); st.Synced >= st.Appended {
		t.Fatalf("off policy synced on Commit: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fs.Crash(0) // Close must have synced everything
	_, rec, err := Open(Options{Dir: "db", FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("%d records survived Close, want 5", len(rec.Records))
	}
}

// TestCloseIdempotent: double Close is a no-op.
func TestCloseIdempotent(t *testing.T) {
	l, _ := openMem(t, NewMemFS(), Options{})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append(1, []byte("x")); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("Append after Close = %v", err)
	}
}

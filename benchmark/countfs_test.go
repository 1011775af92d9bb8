package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mvgc/internal/wal"
)

// TestCountFSAgainstMemFS drives a scripted append sequence through the
// log on a counting FS over MemFS and checks the wrapper's books against
// MemFS's own: the fsync count, and — after a simulated power cut — every
// surviving file's length against the synced prefix the wrapper recorded.
func TestCountFSAgainstMemFS(t *testing.T) {
	mem := wal.NewMemFS()
	cfs := newCountFS(mem)
	log, err := wal.Create(wal.Options{Dir: "wal", FS: cfs, SegmentBytes: 512, Policy: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	gsn := uint64(0)
	appendN := func(n int, commit bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			gsn++
			if err := log.Append(gsn, payload); err != nil {
				t.Fatal(err)
			}
		}
		if commit {
			if err := log.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(1, true)
	appendN(3, true)  // a group: one fsync for three records
	appendN(12, true) // rotates through several 512-byte segments
	if err := log.Checkpoint(gsn, make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	appendN(2, true)
	appendN(2, false) // appended, never committed: still in the log's buffer

	// A file with an unsynced tail, as a flush racing a crash leaves.
	tail, err := cfs.Create("wal/tail")
	if err != nil {
		t.Fatal(err)
	}
	tail.Write(payload)
	if err := tail.Sync(); err != nil {
		t.Fatal(err)
	}
	tail.Write(payload[:40])
	if err := cfs.SyncDir("wal"); err != nil {
		t.Fatal(err)
	}

	c := cfs.counters()
	if got, want := c.syncs, int64(mem.Syncs()); got != want {
		t.Errorf("counted %d fsyncs, MemFS performed %d", got, want)
	}
	if int(c.syncs) != c.nSyncs {
		t.Errorf("%d fsyncs counted but %d durations recorded", c.syncs, c.nSyncs)
	}
	if c.checkpoints != 1 || c.ckptBytes < 300 {
		t.Errorf("checkpoints=%d ckptBytes=%d, want 1 and >= 300", c.checkpoints, c.ckptBytes)
	}
	if c.syncDirs == 0 || c.writes == 0 {
		t.Errorf("syncDirs=%d writes=%d, want both positive", c.syncDirs, c.writes)
	}

	// Before the cut every file is as long as the wrapper says was written.
	names, err := mem.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	for _, n := range names {
		name := filepath.Join("wal", n)
		cfs.mu.Lock()
		st := cfs.files[name]
		cfs.mu.Unlock()
		if st == nil {
			t.Fatalf("%s: on disk but unknown to the wrapper", name)
		}
		if got := memLen(t, mem, name); got != st.written {
			t.Errorf("%s: %d bytes on disk, wrapper counted %d written", name, got, st.written)
		}
		written += st.written
	}
	if written > c.bytesWritten {
		t.Errorf("files hold %d bytes but only %d were counted as written", written, c.bytesWritten)
	}

	// The power cut keeps exactly the synced prefixes.
	mem.Crash(0)
	names, err = mem.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no file survived the crash")
	}
	shorter := false
	for _, n := range names {
		name := filepath.Join("wal", n)
		synced, ok := cfs.syncedLen(name)
		if !ok {
			t.Fatalf("%s survived the crash but the wrapper never saw it", name)
		}
		if got := memLen(t, mem, name); got != synced {
			t.Errorf("%s: %d bytes survived, wrapper recorded a synced prefix of %d", name, got, synced)
		}
		cfs.mu.Lock()
		shorter = shorter || cfs.files[name].synced < cfs.files[name].written
		cfs.mu.Unlock()
	}
	if !shorter {
		t.Error("the uncommitted tail should have left one file's synced prefix short of its length")
	}
}

func memLen(t *testing.T, fs wal.FS, name string) int64 {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := io.Copy(io.Discard, f)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCrashCopyTruncatesToSyncedPrefix checks the copy on the real disk.
func TestCrashCopyTruncatesToSyncedPrefix(t *testing.T) {
	dir := t.TempDir()
	cfs := newCountFS(wal.OsFS{})
	src := filepath.Join(dir, "src")
	if err := cfs.MkdirAll(src); err != nil {
		t.Fatal(err)
	}
	f, err := cfs.Create(filepath.Join(src, "a"))
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("-volatile"))
	f.Close()
	// A file the wrapper never saw created counts as durable in full.
	if err := os.WriteFile(filepath.Join(src, "old"), []byte("preexisting"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "dst")
	n, err := cfs.crashCopy(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"a": "durable", "old": "preexisting"} {
		got, err := os.ReadFile(filepath.Join(dst, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s: copied %q, want %q", name, got, want)
		}
	}
	if want := int64(len("durable") + len("preexisting")); n != want {
		t.Errorf("copied %d bytes, want %d", n, want)
	}
}

// pausedFS stops inside ReadDir until released: the point where crashCopy
// has listed the directory but copied nothing yet.
type pausedFS struct {
	wal.FS
	listed, release chan struct{}
}

func (p pausedFS) ReadDir(dir string) ([]string, error) {
	names, err := p.FS.ReadDir(dir)
	close(p.listed)
	<-p.release
	return names, err
}

// TestCrashCopyIsOneInstant runs what a background checkpoint does — install
// a snapshot by rename, retire a segment — while a crash copy is between
// listing the directory and copying it.  The copy must be the directory as
// it was when the copy began, not a mix that no power cut could leave.
func TestCrashCopyIsOneInstant(t *testing.T) {
	dir := t.TempDir()
	paused := pausedFS{FS: wal.OsFS{}, listed: make(chan struct{}), release: make(chan struct{})}
	cfs := newCountFS(paused)
	src := filepath.Join(dir, "src")
	if err := cfs.MkdirAll(src); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"segment", "ck.tmp"} {
		f, err := cfs.Create(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte(name))
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	checkpointed := make(chan error, 1)
	go func() {
		<-paused.listed
		err := cfs.Rename(filepath.Join(src, "ck.tmp"), filepath.Join(src, "ck-1.snap"))
		if err == nil {
			err = cfs.Remove(filepath.Join(src, "segment"))
		}
		checkpointed <- err
	}()
	go func() {
		<-paused.listed
		// Long enough for an unguarded rename and remove to finish.
		time.Sleep(50 * time.Millisecond)
		close(paused.release)
	}()
	dst := filepath.Join(dir, "dst")
	if _, err := cfs.crashCopy(src, dst); err != nil {
		t.Fatal(err)
	}
	if err := <-checkpointed; err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"segment", "ck.tmp"} {
		got, err := os.ReadFile(filepath.Join(dst, name))
		if err != nil || string(got) != name {
			t.Errorf("%s: copied %q, %v; want the file as it was when the copy began", name, got, err)
		}
	}
	// The checkpoint itself went through once the copy was done.
	if _, err := os.Stat(filepath.Join(src, "ck-1.snap")); err != nil {
		t.Errorf("the rename never happened: %v", err)
	}
	if _, err := os.Stat(filepath.Join(src, "segment")); !os.IsNotExist(err) {
		t.Errorf("the retired segment is still there: %v", err)
	}
}

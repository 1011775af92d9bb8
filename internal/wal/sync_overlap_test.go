package wal

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateFS is a MemFS whose segment fsyncs are counted and can be held: once
// armed, a Sync announces itself on entered and parks until release is
// closed.  It is how the tests below stand inside an fsync and look at the
// log from outside.
type gateFS struct {
	*MemFS
	syncs   atomic.Int64 // segment fsyncs begun
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

// newGateFS returns a gate that opens at the latest when the test ends, so
// a failed assertion never leaves a Close parked behind the held fsync.
func newGateFS(t *testing.T) *gateFS {
	fs := &gateFS{MemFS: NewMemFS(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	t.Cleanup(fs.open)
	return fs
}

// open lets the held fsync (and every later one) through.
func (fs *gateFS) open() { fs.once.Do(func() { close(fs.release) }) }

func (fs *gateFS) Create(name string) (File, error) {
	f, err := fs.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: fs}, nil
}

type gateFile struct {
	File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.fs.armed.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// parkCommit appends A, arms the gate and starts a Commit that parks inside
// A's fsync; it returns the channel the Commit's result arrives on.
func parkCommit(t *testing.T, fs *gateFS, l *Log) chan error {
	t.Helper()
	if err := l.Append(1, []byte("A")); err != nil {
		t.Fatalf("Append(A): %v", err)
	}
	fs.armed.Store(true)
	committed := make(chan error, 1)
	go func() { committed <- l.Commit() }()
	select {
	case <-fs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Commit never reached Sync")
	}
	fs.armed.Store(false) // only this one fsync is held
	return committed
}

// appendDuringSync appends B while A's fsync is held, and fails the test if
// the Append does not return: the append lock is not held across an fsync.
func appendDuringSync(t *testing.T, l *Log) {
	t.Helper()
	appended := make(chan error, 1)
	go func() { appended <- l.Append(2, []byte("B")) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatalf("Append(B) during the fsync: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append(B) blocked behind an in-flight fsync")
	}
}

// TestAppendNotBlockedBySync: while one committer's fsync is in flight,
// another's Append returns — the append lock is not held across the fsync.
func TestAppendNotBlockedBySync(t *testing.T) {
	fs := newGateFS(t)
	l, _ := openMem(t, fs, Options{})
	committed := parkCommit(t, fs, l)
	appendDuringSync(t, l)

	fs.open()
	if err := <-committed; err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec, err := Open(Options{Dir: "db", FS: fs.MemFS})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := gsns(rec.Records); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("recovered %v, want [1 2]", got)
	}
}

// TestTailNeverPastCompletedSync: records appended while an fsync is in
// flight, and the records that fsync itself is covering, are invisible to a
// Tailer and to Stat().Synced until the fsync has returned — the durable
// watermark is published after the Sync, never at the buffer swap.
func TestTailNeverPastCompletedSync(t *testing.T) {
	fs := newGateFS(t)
	l, _ := openMem(t, fs, Options{})
	defer l.Close()
	tl, err := l.Tail(0, 0)
	if err != nil {
		t.Fatalf("Tail: %v", err)
	}
	defer tl.Close()
	defer fs.open() // first of the defers to run: the other two need the log's lock
	before := l.Stat().Synced

	committed := parkCommit(t, fs, l)
	appendDuringSync(t, l)
	if recs, err := nextRecs(tl, false); err != nil || len(recs) != 0 {
		t.Fatalf("tailer shipped %v (err %v) from inside an unfinished fsync", gsns(recs), err)
	}
	if got := l.Stat().Synced; got != before {
		t.Fatalf("Synced moved %d -> %d before the fsync returned", before, got)
	}

	fs.open()
	if err := <-committed; err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// A is durable; B sits in the append buffer, covered by no fsync yet.
	if got := gsns(drainTailer(t, tl)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after the fsync the tailer yielded %v, want exactly [1]", got)
	}
	st := l.Stat()
	if st.Synced <= before || st.Synced >= st.Appended {
		t.Fatalf("Synced = %d, want past %d (A) and short of Appended %d (B)", st.Synced, before, st.Appended)
	}
}

// TestSealedRecordDurableWithoutSync: the fsync that seals a segment makes
// every record in it durable, so a record a roll sealed needs no fsync of its
// own — Stat().Synced covers it once the roll is done, and CommitTo on its
// mark returns without a Sync.
func TestSealedRecordDurableWithoutSync(t *testing.T) {
	fs := newGateFS(t)
	l, _ := openMem(t, fs, Options{SegmentBytes: 128})
	defer l.Close()
	payload := make([]byte, 64)
	mark, err := l.AppendMark(1, payload)
	if err != nil {
		t.Fatalf("AppendMark(1): %v", err)
	}
	if _, err := l.AppendMark(2, payload); err != nil { // does not fit: rolls
		t.Fatalf("AppendMark(2): %v", err)
	}
	st := l.Stat()
	if st.Segments != 2 {
		t.Fatalf("%d segments after the second record, want 2 (a roll)", st.Segments)
	}
	if st.Synced < mark {
		t.Fatalf("Synced = %d after the roll sealed the record ending at %d", st.Synced, mark)
	}
	before := fs.syncs.Load()
	if err := l.CommitTo(mark); err != nil {
		t.Fatalf("CommitTo: %v", err)
	}
	if n := fs.syncs.Load() - before; n != 0 {
		t.Fatalf("CommitTo of a sealed record issued %d fsyncs, want 0", n)
	}
}

package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mvgc/internal/wal"
)

// countFS wraps a wal.FS and records what the log does to it: per file
// the bytes written and the prefix covered by the last Sync, overall the
// Write/Sync/SyncDir counts and every Sync's duration.  It is the only
// source for the wal.fsync* metrics, bytes per write and the crash copy.
// With a tracer attached it also records a span around every Write and
// Sync.
type countFS struct {
	inner wal.FS

	// ns is held shared by every operation that changes which files exist
	// or shortens one, and exclusively by crashCopy: the copy is then the
	// directory at one instant, as a power cut leaves it, even while a
	// background checkpoint installs a snapshot and retires segments.
	ns sync.RWMutex

	mu           sync.Mutex
	files        map[string]*fileStat
	writes       int64
	syncs        int64
	syncDirs     int64
	bytesWritten int64
	syncNs       []int64 // one entry per Sync
	checkpoints  int64   // snapshot files renamed into place
	ckptBytes    int64   // bytes written to snapshot files
	ckptNs       int64   // create-to-rename time of installed snapshots
	ckptStart    map[string]time.Time

	tr                  *tracer
	parent              int32 // span the FS spans hang off (the rung's root)
	writeSpan, syncSpan uint16
}

type fileStat struct {
	written int64 // current length
	synced  int64 // prefix covered by the last Sync
}

func newCountFS(inner wal.FS) *countFS {
	return &countFS{inner: inner, files: map[string]*fileStat{}, ckptStart: map[string]time.Time{}, parent: -1}
}

// trace attaches a tracer; FS spans get the given parent.  Call it before
// the FS is handed to a log: the log's goroutines read these fields.
func (fs *countFS) trace(tr *tracer, parent int32) {
	fs.tr, fs.parent = tr, parent
	fs.writeSpan, fs.syncSpan = tr.id("fs.write"), tr.id("fs.sync")
}

// isSnapshot recognises the log's checkpoint files (ck.tmp while being
// written, ck-N.snap once installed).
func isSnapshot(name string) bool { return strings.HasPrefix(filepath.Base(name), "ck") }

func (fs *countFS) Create(name string) (wal.File, error) {
	fs.ns.RLock()
	defer fs.ns.RUnlock()
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	st := &fileStat{}
	fs.mu.Lock()
	fs.files[name] = st
	if isSnapshot(name) {
		fs.ckptStart[name] = time.Now()
	}
	fs.mu.Unlock()
	return &countFile{File: f, fs: fs, st: st, snap: isSnapshot(name)}, nil
}

func (fs *countFS) Open(name string) (wal.File, error)   { return fs.inner.Open(name) }
func (fs *countFS) ReadDir(dir string) ([]string, error) { return fs.inner.ReadDir(dir) }
func (fs *countFS) MkdirAll(dir string) error            { return fs.inner.MkdirAll(dir) }

func (fs *countFS) Remove(name string) error {
	fs.ns.RLock()
	defer fs.ns.RUnlock()
	err := fs.inner.Remove(name)
	if err == nil {
		fs.mu.Lock()
		delete(fs.files, name)
		fs.mu.Unlock()
	}
	return err
}

func (fs *countFS) Rename(oldname, newname string) error {
	fs.ns.RLock()
	defer fs.ns.RUnlock()
	err := fs.inner.Rename(oldname, newname)
	if err == nil {
		fs.mu.Lock()
		if st, ok := fs.files[oldname]; ok {
			delete(fs.files, oldname)
			fs.files[newname] = st
		}
		if t0, ok := fs.ckptStart[oldname]; ok && strings.HasSuffix(newname, ".snap") {
			fs.checkpoints++
			fs.ckptNs += int64(time.Since(t0))
		}
		delete(fs.ckptStart, oldname)
		fs.mu.Unlock()
	}
	return err
}

func (fs *countFS) Truncate(name string, size int64) error {
	fs.ns.RLock()
	defer fs.ns.RUnlock()
	err := fs.inner.Truncate(name, size)
	if err == nil {
		fs.mu.Lock()
		if st, ok := fs.files[name]; ok {
			st.written = min(st.written, size)
			st.synced = min(st.synced, size)
		}
		fs.mu.Unlock()
	}
	return err
}

func (fs *countFS) SyncDir(dir string) error {
	fs.mu.Lock()
	fs.syncDirs++
	fs.mu.Unlock()
	return fs.inner.SyncDir(dir)
}

type countFile struct {
	wal.File
	fs   *countFS
	st   *fileStat
	snap bool
}

func (f *countFile) Write(p []byte) (int, error) {
	sp := f.fs.tr.begin(f.fs.writeSpan, f.fs.parent, -1)
	n, err := f.File.Write(p)
	f.fs.tr.end(sp)
	f.fs.mu.Lock()
	f.st.written += int64(n)
	f.fs.writes++
	f.fs.bytesWritten += int64(n)
	if f.snap {
		f.fs.ckptBytes += int64(n)
	}
	f.fs.mu.Unlock()
	return n, err
}

func (f *countFile) Sync() error {
	f.fs.mu.Lock()
	covered := f.st.written // a write racing the fsync is not covered by it
	f.fs.mu.Unlock()
	sp := f.fs.tr.begin(f.fs.syncSpan, f.fs.parent, -1)
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.fs.tr.end(sp)
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.syncNs = append(f.fs.syncNs, int64(d))
	if err == nil && covered > f.st.synced {
		f.st.synced = covered
	}
	f.fs.mu.Unlock()
	return err
}

// fsCounters is a point-in-time copy of the counters.
type fsCounters struct {
	writes, syncs, syncDirs, bytesWritten int64
	checkpoints, ckptBytes, ckptNs        int64
	syncNsTotal                           int64
	nSyncs                                int // len(syncNs), to slice durations since a mark
}

func (fs *countFS) counters() fsCounters {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c := fsCounters{
		writes: fs.writes, syncs: fs.syncs, syncDirs: fs.syncDirs, bytesWritten: fs.bytesWritten,
		checkpoints: fs.checkpoints, ckptBytes: fs.ckptBytes, ckptNs: fs.ckptNs, nSyncs: len(fs.syncNs),
	}
	for _, d := range fs.syncNs {
		c.syncNsTotal += d
	}
	return c
}

// syncHist returns the distribution of Sync durations from index from on.
func (fs *countFS) syncHist(from int) *hist {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	h := &hist{}
	for _, d := range fs.syncNs[from:] {
		h.record(d)
	}
	return h
}

// syncedLen reports the synced prefix of name; ok is false for a file the
// wrapper never saw created (then everything on disk counts as durable).
func (fs *countFS) syncedLen(name string) (n int64, ok bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, ok := fs.files[name]
	if !ok {
		return 0, false
	}
	return st.synced, true
}

// crashCopy copies dir to dst as a power cut would have left it: every
// file truncated to the length its last Sync covered.  kill -9 would
// leave the page cache intact, so the benchmark discards the unsynced
// bytes itself.  Files can neither appear, vanish, be renamed nor shrink
// while it runs; appends and fsyncs go on, and land in the copy or not as
// they would around a real cut.  It returns the bytes copied.
func (fs *countFS) crashCopy(dir, dst string) (int64, error) {
	fs.ns.Lock()
	defer fs.ns.Unlock()
	names, err := fs.inner.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		src := filepath.Join(dir, name)
		in, err := os.Open(src)
		if err != nil {
			return total, err
		}
		var r io.Reader = in
		if n, ok := fs.syncedLen(src); ok {
			r = io.LimitReader(in, n)
		}
		out, err := os.Create(filepath.Join(dst, name))
		if err != nil {
			in.Close()
			return total, err
		}
		n, err := io.Copy(out, r)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

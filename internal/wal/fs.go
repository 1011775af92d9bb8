// Package wal is a segmented, CRC-framed, GSN-ordered redo log with
// group commit and snapshot checkpoints.
//
// The log stores opaque payloads keyed by the shard layer's global
// sequence numbers (GSNs): every committed write transaction appends one
// record stamped with its commit GSN, and recovery replays records in
// ascending GSN order on top of the newest valid checkpoint snapshot.
// Durability is group-commit shaped: Append buffers, and a Commit either
// leads — elected under the log's one mutex, it fsyncs every record
// appended so far with the mutex released — or waits for the leader that
// covers it, so the commits of N concurrent writers share one fsync (see
// DESIGN.md "Durability").
//
// All file I/O goes through the FS interface so tests can run the whole
// stack against MemFS (an in-memory filesystem with a power-cut model)
// wrapped in FaultFS (a failpoint injector producing short writes, fsync
// errors, and hard crashes at any chosen operation).
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the slice of filesystem the log needs.  OsFS implements it over
// the real filesystem; MemFS implements it in memory with simulated
// power cuts; FaultFS wraps either with fault injection.
type FS interface {
	// Create truncates-or-creates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// ReadDir lists the base names of the directory's entries.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(dir string) error
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically replaces newname with oldname's file.  The new
	// directory entry is only crash-durable after SyncDir.
	Rename(oldname, newname string) error
	// Truncate shortens the named file to size bytes.
	Truncate(name string, size int64) error
	// SyncDir makes the directory's entries (creates, renames) durable.
	SyncDir(dir string) error
}

// File is the read/write handle surface the log uses.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync makes all written bytes durable.
	Sync() error
}

// OsFS is the real filesystem.
type OsFS struct{}

func (OsFS) Create(name string) (File, error) { return os.Create(name) }
func (OsFS) Open(name string) (File, error)   { return os.Open(name) }

func (OsFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

func (OsFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (OsFS) Remove(name string) error             { return os.Remove(name) }
func (OsFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (OsFS) Truncate(name string, size int64) error {
	return os.Truncate(name, size)
}

func (OsFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// MemFS is an in-memory FS with a power-cut model:
//
//   - each file tracks its synced prefix (bytes made durable by Sync);
//   - directory entries created or renamed-in since the last SyncDir are
//     pending: a crash removes them entirely;
//   - Crash(torn) truncates every surviving file to its synced prefix
//     plus up to torn unsynced bytes (simulating a partially flushed OS
//     write cache) and drops pending entries.
//
// Deliberate simplifications, each conservative (MemFS loses at least as
// much as a real power cut can): Remove and Truncate are durable
// immediately, and a Rename makes the removal of the old name durable
// immediately while the new name stays pending until SyncDir.  Recovery
// must therefore cope with e.g. a checkpoint rename that lost both the
// temp file and the final name.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	syncs int
}

// Syncs reports how many file fsyncs have been performed, so tests can
// assert fsync *scheduling* (e.g. how many fsyncs one write entry point
// costs), not just durability outcomes.
func (fs *MemFS) Syncs() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs
}

type memFile struct {
	data    []byte
	synced  int  // durable prefix length
	durable bool // directory entry survives a crash (SyncDir'd)
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// Crash simulates a power cut: pending directory entries vanish and every
// surviving file keeps its synced prefix plus at most torn unsynced bytes.
func (fs *MemFS) Crash(torn int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, f := range fs.files {
		if !f.durable {
			delete(fs.files, name)
			continue
		}
		keep := f.synced + torn
		if keep > len(f.data) {
			keep = len(f.data)
		}
		if keep < f.synced {
			keep = f.synced
		}
		f.data = f.data[:keep]
		if f.synced > len(f.data) {
			f.synced = len(f.data)
		}
	}
}

func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &memFile{}
	fs.files[name] = f
	return &memHandle{fs: fs, name: name, write: true}, nil
}

func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memHandle{fs: fs, name: name}, nil
}

func (fs *MemFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	prefix := dir + string(filepath.Separator)
	var names []string
	for name := range fs.files {
		if filepath.Dir(name) == dir {
			names = append(names, name[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *MemFS) MkdirAll(string) error { return nil }

func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	return nil
}

func (fs *MemFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	delete(fs.files, oldname)
	f.durable = false // the new entry needs a SyncDir to survive a crash
	fs.files[newname] = f
	return nil
}

func (fs *MemFS) Truncate(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return &os.PathError{Op: "truncate", Path: name, Err: os.ErrNotExist}
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("truncate %s: size %d out of range", name, size)
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

func (fs *MemFS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, f := range fs.files {
		if filepath.Dir(name) == dir {
			f.durable = true
		}
	}
	return nil
}

// memHandle is one open descriptor; reads have their own offset, writes
// always append (the log never seeks).
type memHandle struct {
	fs    *MemFS
	name  string
	off   int
	write bool
}

var errMemClosed = errors.New("memfs: file deleted under open handle")

func (h *memHandle) file() (*memFile, error) {
	f, ok := h.fs.files[h.name]
	if !ok {
		return nil, errMemClosed
	}
	return f, nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	if h.off >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[h.off:])
	h.off += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if !h.write {
		return 0, errors.New("memfs: file not open for writing")
	}
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return err
	}
	h.fs.syncs++
	f.synced = len(f.data)
	return nil
}

func (h *memHandle) Close() error { return nil }

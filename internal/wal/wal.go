package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Policy selects when appended records are fsynced.
type Policy int

const (
	// FsyncAlways syncs on every Commit: an acked write is a durable
	// write.  This is the only policy under which the recovery matrix
	// asserts acked-write survival.
	FsyncAlways Policy = iota
	// FsyncOff never syncs except on Close.
	FsyncOff
)

// ParsePolicy maps the -wal-fsync flag spellings onto policies.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always or off)", s)
}

// Options configures a Log.
type Options struct {
	// Dir holds the segments and snapshots.  Created if missing.
	Dir string
	// FS defaults to the real filesystem (OsFS).
	FS FS
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds it (default 64 MiB).
	SegmentBytes int64
	// MaxBytes, when non-zero, bounds the log's live bytes (sealed
	// segments plus the current one): Append fails with ErrWALFull
	// beyond it until a checkpoint retires segments.  The bound is
	// soft — a record in flight may overshoot it by one record.
	MaxBytes int64
	// Policy is the fsync policy (default FsyncAlways).
	Policy Policy
}

// ErrWALFull is returned by Append when MaxBytes is exceeded.  It is not
// sticky: a checkpoint that retires segments makes Append usable again.
var ErrWALFull = errors.New("wal: log full (checkpoint to retire segments)")

// ErrLogClosed is returned by operations on a closed Log.
var ErrLogClosed = errors.New("wal: log closed")

// flushThreshold flushes the append buffer to the file (without syncing)
// once it grows past this, bounding memory under FsyncOff.
const flushThreshold = 256 << 10

// segInfo describes a sealed (closed, fully synced) segment.
type segInfo struct {
	seq    uint64
	name   string
	maxGSN uint64 // highest record GSN inside; 0 when empty
	size   int64
}

// Log is the write side of the WAL.  Append buffers a framed record;
// Commit group-syncs everything appended so far — concurrent committers
// elect one fsync leader and the rest ride its barrier, so a burst of
// batches costs one fsync, not one per batch.
type Log struct {
	fs   FS
	dir  string
	opts Options

	// mu guards all of the log's state, the group commit's included, and is
	// never held across an fsync.  The current segment has one writer at a
	// time: whoever holds mu with inflight clear, or — with mu released —
	// the fsync leader that set inflight (syncLocked).
	mu        sync.Mutex
	cur       File
	curName   string
	curSeq    uint64
	curSize   int64 // bytes appended to the current segment (incl. header)
	curMaxGSN uint64
	buf       []byte // framed records not yet written to cur
	spare     []byte // the other append buffer; nil while a leader writes it out
	appended  int64  // logical watermark: total framed bytes ever appended
	// inflight is set while an fsync leader writes and syncs cur outside mu;
	// there is at most one leader.  A size-triggered flush, a segment roll
	// and a committer the leader does not cover wait for it on ioCond rather
	// than write to (or seal) the file under the leader.
	inflight  bool
	ioCond    sync.Cond
	synced    int64 // watermark: appended bytes known durable
	sealed    []segInfo
	liveBytes int64
	snapSeq   uint64
	snapSize  int64  // bytes of snapshot file snapSeq, which LatestSnapshot hands out
	snapCut   uint64 // GSN the newest durable snapshot covers; 0 when none
	err       error  // sticky: the log is unusable after an I/O failure
	closed    bool

	failed atomic.Bool // err != nil, readable without mu (see Err)

	// curDurable is the current segment's durable prefix in bytes: 0 until
	// its first fsync, then what l.curSize was when the last completed
	// leader swapped the buffers out — published with synced, only after
	// that fsync returned, and short of l.curSize by whatever was appended
	// since.
	// Sealed segments are fully durable (sealing syncs before closing), so
	// this single watermark plus the sealed sizes define exactly the byte
	// range a Tailer may ship — a shipped record is never one a crash on
	// this log could un-happen.
	curDurable int64
	// tailCond (on mu) wakes Tailers when their window can move: durable
	// bytes grew, a segment sealed, a checkpoint retired segments, new
	// records were appended (so a waiting tailer can force a sync), or the
	// log closed.  tailWaiters gates the broadcasts so the common no-tailer
	// path pays one integer check.
	tailCond    sync.Cond
	tailWaiters int

	ckptMu sync.Mutex // single-flight checkpoints
}

func segName(seq uint64) string  { return fmt.Sprintf("seg-%08d.wal", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("ck-%08d.snap", seq) }

const snapTmpName = "ck.tmp"

// Create opens a Log in dir, recovering any existing state; see Open for
// the recovery contract.  Most callers want Open (which also returns
// what was recovered); Create discards it.
func Create(opts Options) (*Log, error) {
	l, _, err := Open(opts)
	return l, err
}

// newSegmentLocked seals the current segment (if any) and starts the
// next one.  The seal syncs the old file before the new one exists, so
// a torn tail can only ever be in the highest-numbered segment; the
// SyncDir makes the new entry crash-durable before any record lands in
// it.  The seal's fsync makes every record appended so far durable, so it
// advances synced too.  The caller holds mu with no fsync in flight.
func (l *Log) newSegmentLocked() error {
	if l.cur != nil {
		if err := l.flushLocked(); err != nil {
			return err
		}
		if err := l.cur.Sync(); err != nil {
			return l.fail(fmt.Errorf("wal: seal %s: %w", l.curName, err))
		}
		if err := l.cur.Close(); err != nil {
			return l.fail(fmt.Errorf("wal: seal %s: %w", l.curName, err))
		}
		l.sealed = append(l.sealed, segInfo{seq: l.curSeq, name: l.curName, maxGSN: l.curMaxGSN, size: l.curSize})
		l.synced = l.appended // the seal's fsync covered every record so far
		if l.tailWaiters > 0 {
			l.tailCond.Broadcast() // the sealed segment is fully durable
		}
	}
	seq := l.curSeq + 1
	name := filepath.Join(l.dir, segName(seq))
	f, err := l.fs.Create(name)
	if err != nil {
		return l.fail(fmt.Errorf("wal: create segment: %w", err))
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		return l.fail(fmt.Errorf("wal: segment header: %w", err))
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return l.fail(fmt.Errorf("wal: sync dir: %w", err))
	}
	l.cur, l.curName, l.curSeq = f, name, seq
	l.curSize = int64(len(segMagic))
	l.curMaxGSN = 0
	l.curDurable = 0
	l.liveBytes += int64(len(segMagic))
	return nil
}

// flushLocked writes the append buffer to the current segment without
// syncing; the caller holds mu with no fsync in flight.  A failed or short
// write poisons the log: the file may now hold a partial frame that later
// appends would bury, so no further record can ever be acked from this Log.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	_, err := l.cur.Write(l.buf)
	if err != nil {
		return l.fail(fmt.Errorf("wal: write %s: %w", l.curName, err))
	}
	l.buf = l.buf[:0]
	return nil
}

// Append frames one record and buffers it.  It does not make the record
// durable — call Commit (typically once per gathered batch).  Append
// returns ErrWALFull when MaxBytes is exceeded and the sticky log error
// after any I/O failure.
func (l *Log) Append(gsn uint64, payload []byte) error {
	_, err := l.AppendMark(gsn, payload)
	return err
}

// AppendMark is Append that also returns the record's mark: the logical
// watermark just past it.  CommitTo(mark) waits for exactly this record
// (and everything before it), however much is appended behind it meanwhile.
//
// Append never waits for an fsync it does not have to: the two cases that
// touch the file — the buffer outgrowing flushThreshold, the segment
// filling up — wait for an in-flight fsync to finish (the leader is the
// file's only writer meanwhile) and then do their I/O under mu as before.
func (l *Log) AppendMark(gsn uint64, payload []byte) (mark int64, err error) {
	if len(payload) > maxPayloadBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	// curSize and liveBytes already count buffered-but-unflushed frames.
	frame := int64(frameLen(len(payload)))
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		switch {
		case l.closed:
			return 0, ErrLogClosed
		case l.err != nil:
			return 0, l.err
		case l.opts.MaxBytes > 0 && l.liveBytes+frame > l.opts.MaxBytes:
			return 0, ErrWALFull
		}
		if l.curSize+frame <= l.opts.SegmentBytes || l.curSize == int64(len(segMagic)) {
			break
		}
		if l.inflight {
			l.ioCond.Wait() // everything above may have changed: look again
			continue
		}
		if err := l.newSegmentLocked(); err != nil {
			return 0, err
		}
		break
	}
	l.buf = AppendFrame(l.buf, gsn, payload)
	l.appended += frame
	l.curSize += frame
	l.liveBytes += frame
	mark = l.appended
	if gsn > l.curMaxGSN {
		l.curMaxGSN = gsn
	}
	if l.tailWaiters > 0 {
		// A caught-up Tailer waits for appends so it can force a sync and
		// ship under FsyncOff, where no Commit would ever wake it.
		l.tailCond.Broadcast()
	}
	// An fsync leader that got in first takes the whole buffer with it, so
	// after a wait there is usually nothing left to flush.
	for len(l.buf) >= flushThreshold {
		if l.err != nil {
			return 0, l.err
		}
		if !l.inflight {
			return mark, l.flushLocked()
		}
		l.ioCond.Wait()
	}
	return mark, nil
}

// Commit makes every record appended so far durable under FsyncAlways
// (group commit: one leader fsyncs for all concurrent committers) and is
// a no-op returning only the sticky error under FsyncOff.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked(l.appended)
}

// CommitTo is Commit for one record: it returns once the log is durable up
// to mark (an AppendMark result), without waiting for — or forcing an fsync
// of — anything appended after it.
func (l *Log) CommitTo(mark int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked(mark)
}

// commitLocked is CommitTo with mu held.
func (l *Log) commitLocked(mark int64) error {
	switch {
	case l.err != nil:
		return l.err
	case l.closed:
		return ErrLogClosed
	case l.opts.Policy != FsyncAlways:
		return nil
	}
	return l.syncLocked(mark)
}

// Sync forces a flush+fsync regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(l.appended)
}

// maxSpareBytes bounds the capacity a written-out append buffer may keep
// for reuse: one oversized record (a bulk load's) must not pin its size in
// both buffers for the life of the log.
const maxSpareBytes = 2 * flushThreshold

// syncLocked returns once the durable watermark covers target, whatever the
// policy; the caller holds mu.  A caller that finds the watermark short and
// no fsync in flight becomes the leader: it swaps the buffer for the spare
// and notes the watermarks under mu, then writes and fsyncs with mu
// released — appenders fill the other buffer meanwhile, and the next leader
// covers them all — and retakes mu to publish synced and curDurable
// together.  Everyone else waits on ioCond and looks again: the leader
// covers them, or one of them leads next (records appended after the
// leader noted its watermark).
func (l *Log) syncLocked(target int64) error {
	for l.synced < target {
		switch {
		case l.err != nil:
			return l.err
		case l.cur == nil:
			return ErrLogClosed
		case l.inflight:
			l.ioCond.Wait()
			continue
		}
		var out []byte
		if len(l.buf) > 0 {
			out, l.buf, l.spare = l.buf, l.spare[:0], nil
		}
		// Everything up to reached is in the file or in out, and the file
		// will be exactly size bytes long once out is written.
		reached, size := l.appended, l.curSize
		f, name := l.cur, l.curName
		l.inflight = true
		l.mu.Unlock()

		var err error
		if len(out) > 0 {
			if _, werr := f.Write(out); werr != nil {
				err = fmt.Errorf("wal: write %s: %w", name, werr)
			}
		}
		if err == nil {
			if serr := f.Sync(); serr != nil {
				err = fmt.Errorf("wal: fsync %s: %w", name, serr)
			}
		}

		l.mu.Lock()
		l.inflight = false
		l.ioCond.Broadcast()
		if out != nil && cap(out) <= maxSpareBytes {
			l.spare = out[:0]
		}
		if err != nil {
			// As in flushLocked: the file may hold a partial frame, and
			// nothing appended since can be acked from this Log either.
			return l.fail(err)
		}
		// Durable only now that the Sync has returned.  No roll can have
		// happened under inflight, so size still measures l.cur.
		l.synced, l.curDurable = reached, size
		if l.tailWaiters > 0 {
			l.tailCond.Broadcast()
		}
	}
	return nil
}

// Err returns the sticky log error, if any.  A healthy log answers without
// mu: every logged write asks first, and must not queue behind the
// committers a finished fsync wakes.
func (l *Log) Err() error {
	if !l.failed.Load() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// fail makes err the log's sticky error and returns it; the caller holds mu.
func (l *Log) fail(err error) error {
	l.err = err
	l.failed.Store(true)
	return err
}

// Checkpoint atomically installs a snapshot covering every commit with
// GSN <= cut, then retires sealed segments (and older snapshots) wholly
// below the cut.  The snapshot is written to a temp file, synced,
// renamed into place, and the directory synced — only then is anything
// deleted, so a crash at any point leaves either the old or the new
// snapshot fully intact.  Checkpoints are single-flight; errors are not
// sticky (a failed checkpoint leaves the log usable).
func (l *Log) Checkpoint(cut uint64, snapshot []byte) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrLogClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	seq := l.snapSeq + 1
	l.mu.Unlock()

	tmp := filepath.Join(l.dir, snapTmpName)
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	header, trailer := snapshotEnds(cut, snapshot)
	for _, part := range [][]byte{header[:], snapshot, trailer[:]} {
		if _, err := f.Write(part); err != nil {
			f.Close()
			return fmt.Errorf("wal: checkpoint write: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	final := filepath.Join(l.dir, snapName(seq))
	if err := l.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: checkpoint sync dir: %w", err)
	}

	// The snapshot is durable: retire everything it supersedes.
	l.mu.Lock()
	oldSnap := l.snapSeq
	l.snapSeq = seq
	l.snapSize = int64(len(header) + len(snapshot) + len(trailer))
	if cut > l.snapCut {
		l.snapCut = cut
	}
	if l.tailWaiters > 0 {
		l.tailCond.Broadcast() // retirement may invalidate a tail position
	}
	keep := l.sealed[:0]
	var retire []segInfo
	for _, s := range l.sealed {
		if s.maxGSN <= cut {
			retire = append(retire, s)
		} else {
			keep = append(keep, s)
		}
	}
	l.sealed = keep
	for _, s := range retire {
		l.liveBytes -= s.size
	}
	l.mu.Unlock()

	for _, s := range retire {
		if err := l.fs.Remove(s.name); err != nil {
			return fmt.Errorf("wal: retire %s: %w", s.name, err)
		}
	}
	if oldSnap != 0 {
		if err := l.fs.Remove(filepath.Join(l.dir, snapName(oldSnap))); err != nil {
			return fmt.Errorf("wal: retire snapshot %d: %w", oldSnap, err)
		}
	}
	return nil
}

// Stats is a point-in-time snapshot of the log's shape, for tests and
// STATS-style introspection.
type Stats struct {
	Segments    int    // sealed + current
	LiveBytes   int64  // bytes MaxBytes accounts against
	Appended    int64  // logical bytes appended
	Synced      int64  // logical bytes known durable
	SnapshotCut uint64 // GSN the newest durable checkpoint covers; 0 when none
}

// Stat reports the log's current shape.
func (l *Log) Stat() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Segments: len(l.sealed) + 1, LiveBytes: l.liveBytes, Appended: l.appended, Synced: l.synced, SnapshotCut: l.snapCut}
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Close flushes and fsyncs outstanding records under either policy (the
// graceful-shutdown path: SIGTERM must not lose off-policy acks), then
// closes the segment.  Committers already waiting are covered by that
// fsync; later ones get ErrLogClosed.  Safe to call more than once; the
// Log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked(l.appended)
	l.tailCond.Broadcast() // wake Tailers so they observe closed
	if l.cur != nil {
		if cerr := l.cur.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.cur = nil
	}
	return err
}

package wal

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Record is one recovered redo record.
type Record struct {
	GSN     uint64
	Payload []byte
}

// Recovered is what Open found on disk.
type Recovered struct {
	// SnapshotCut is the GSN the snapshot covers (0 when no snapshot).
	SnapshotCut uint64
	// Snapshot is the newest valid checkpoint payload, nil when none.
	Snapshot []byte
	// Records holds every valid record with GSN > SnapshotCut, in
	// ascending GSN order (stable, so equal-GSN records — impossible
	// today but cheap to guarantee — keep log order).
	Records []Record
	// MaxGSN is the highest GSN seen anywhere (records or cut): the
	// caller must resume its GSN counter strictly above it.
	MaxGSN uint64
}

// Open recovers the log in opts.Dir and returns a Log ready for new
// appends plus what was recovered.  Recovery rules:
//
//   - the newest snapshot whose CRC validates wins; snapshots whose
//     bytes are readable but fail validation (an interrupted checkpoint)
//     are removed, while an I/O error reading one fails Open — deleting
//     a snapshot we could not read would silently lose every write it
//     covers;
//   - segments are scanned in sequence order; a torn tail (bad CRC,
//     short frame) in the highest-numbered segment is truncated away
//     and the truncate fsynced — rotation seals segments with an fsync
//     before creating the next, so a tear anywhere else is real
//     corruption and fails Open;
//   - a segment whose header never made it to disk (a crash between
//     segment creation and its first fsync) cannot hold acked data and
//     is removed, not truncated to an empty file a later Open would
//     refuse as a torn non-final segment;
//   - new appends always go to a fresh segment, never a recovered one,
//     so recovery never has to distinguish old bytes from new.
func Open(opts Options) (*Log, *Recovered, error) {
	if opts.FS == nil {
		opts.FS = OsFS{}
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	fs, dir := opts.FS, opts.Dir
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: readdir %s: %w", dir, err)
	}

	var segSeqs, snapSeqs []uint64
	stray := []string{}
	for _, name := range names {
		if seq, ok := parseName(name, "seg-", ".wal"); ok {
			segSeqs = append(segSeqs, seq)
		} else if seq, ok := parseName(name, "ck-", ".snap"); ok {
			snapSeqs = append(snapSeqs, seq)
		} else if name == snapTmpName {
			stray = append(stray, name)
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })

	rec := &Recovered{}
	var snapSeq uint64
	var snapSize int64
	// Newest valid snapshot wins; anything newer that fails validation
	// is an interrupted checkpoint and is removed.
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		name := filepath.Join(dir, snapName(snapSeqs[i]))
		file, rerr := readFile(fs, name)
		if rerr != nil {
			// A transient read failure is NOT an invalid snapshot: the
			// checkpoint that wrote it already retired the segments (and
			// the older snapshot) it supersedes, so deleting it here
			// would silently lose every acked write it covers.
			return nil, nil, fmt.Errorf("wal: snapshot %s: %w", name, rerr)
		}
		cut, payload, ok := DecodeSnapshot(file)
		if !ok {
			stray = append(stray, snapName(snapSeqs[i]))
			continue
		}
		snapSeq, snapSize = snapSeqs[i], int64(len(file))
		rec.SnapshotCut, rec.Snapshot = cut, payload
		// Older snapshots are superseded; an interrupted checkpoint may
		// have left them behind.
		for j := 0; j < i; j++ {
			stray = append(stray, snapName(snapSeqs[j]))
		}
		break
	}
	for _, name := range stray {
		// Best-effort: a failed cleanup leaves garbage the next Open
		// retries, never wrong state.
		fs.Remove(filepath.Join(dir, name)) //nolint:errcheck
	}

	var sealed []segInfo
	var liveBytes int64
	var maxSeq uint64
	for i, seq := range segSeqs {
		name := filepath.Join(dir, segName(seq))
		last := i == len(segSeqs)-1
		recs, maxGSN, good, size, torn, err := readSegment(fs, name)
		if err != nil {
			return nil, nil, err
		}
		if torn && good == 0 && (last || size <= int64(len(segMagic))) {
			// The header never became durable: a crash hit between
			// Create+SyncDir and the segment's first fsync.  No record
			// in it was ever acked (an ack requires a successful fsync,
			// which would have made the header durable too), so remove
			// the file — truncating it to zero bytes would leave an
			// empty segment a later Open refuses as torn-non-final once
			// new segments are created after it.  Non-final is the same
			// artifact reappearing when a removal did not survive a
			// power cut, but only while the file is at most header-sized;
			// a larger magic-less non-final segment is real corruption
			// and falls through to the error below.  The SyncDir makes
			// the removal stick.
			if err := fs.Remove(name); err != nil {
				return nil, nil, fmt.Errorf("wal: remove headerless %s: %w", name, err)
			}
			if err := fs.SyncDir(dir); err != nil {
				return nil, nil, fmt.Errorf("wal: sync dir: %w", err)
			}
			maxSeq = seq // never reuse the dead name
			continue
		}
		if torn {
			if !last {
				return nil, nil, fmt.Errorf("wal: %s: torn frame in non-final segment", name)
			}
			if err := fs.Truncate(name, good); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
			}
			// Truncate alone is not crash-durable: fsync the file so the
			// torn bytes cannot reappear after a power cut, by which time
			// this segment may no longer be final and the tear would fail
			// Open outright.
			if err := syncFile(fs, name); err != nil {
				return nil, nil, fmt.Errorf("wal: sync truncated %s: %w", name, err)
			}
		}
		for _, r := range recs {
			if r.GSN > rec.MaxGSN {
				rec.MaxGSN = r.GSN
			}
			if r.GSN > rec.SnapshotCut {
				rec.Records = append(rec.Records, r)
			}
		}
		sealed = append(sealed, segInfo{seq: seq, name: name, maxGSN: maxGSN, size: good})
		liveBytes += good
		maxSeq = seq
	}
	if rec.SnapshotCut > rec.MaxGSN {
		rec.MaxGSN = rec.SnapshotCut
	}
	sort.SliceStable(rec.Records, func(i, j int) bool { return rec.Records[i].GSN < rec.Records[j].GSN })

	l := &Log{
		fs:        fs,
		dir:       dir,
		opts:      opts,
		curSeq:    maxSeq,
		sealed:    sealed,
		liveBytes: liveBytes,
		snapSeq:   snapSeq,
		snapSize:  snapSize,
		snapCut:   rec.SnapshotCut,
	}
	l.syncCond.L = &l.syncMu
	l.tailCond.L = &l.mu
	l.ioCond.L = &l.mu
	l.mu.Lock()
	err = l.newSegmentLocked()
	l.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// parseName parses names like seg-00000042.wal into their sequence.
func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if mid == "" {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// readFile reads the named file whole.
func readFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	f.Close()
	return data, err
}

// syncFile fsyncs the named file, making a recovery-time truncate itself
// durable.  Opening read-only is fine: fsync flushes a file's data and
// size regardless of the handle's access mode.
func syncFile(fs FS, name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readSegment parses one segment file.  good is the byte offset of the
// end of the last valid frame (the truncation point when torn); size is
// the raw file length (good == 0 with torn means the header itself is
// missing or invalid).  The records' payloads alias the bytes read.
func readSegment(fs FS, name string) (recs []Record, maxGSN uint64, good, size int64, torn bool, err error) {
	data, err := readFile(fs, name)
	if err != nil {
		return nil, 0, 0, 0, false, fmt.Errorf("wal: read %s: %w", name, err)
	}
	size = int64(len(data))
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		// An empty or truncated-to-nothing header is a torn creation.
		return nil, 0, 0, size, true, nil
	}
	off := len(segMagic)
	for off < len(data) {
		gsn, payload, n, err := NextFrame(data[off:])
		if err != nil {
			// Short or corrupt, at the end of a file both are a torn tail.
			return recs, maxGSN, int64(off), size, true, nil
		}
		recs = append(recs, Record{GSN: gsn, Payload: payload})
		maxGSN = max(maxGSN, gsn)
		off += n
	}
	return recs, maxGSN, int64(off), size, false, nil
}

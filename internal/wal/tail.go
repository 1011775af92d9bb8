package wal

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
)

// ErrTailTruncated means the requested tail position is no longer
// retained (a checkpoint retired it, or records the tailer has not
// shipped were retired out from under it).  The caller recovers by
// bootstrapping from LatestSnapshot and tailing again with
// TailSnapshot.
var ErrTailTruncated = fmt.Errorf("wal: tail position retired (bootstrap from the latest snapshot)")

// ErrTailerClosed is returned by Next after Close.
var ErrTailerClosed = fmt.Errorf("wal: tailer closed")

// maxTailRead bounds one read from a segment file, so a tailer never
// materialises a whole segment at once, and one run that Next hands out.
const maxTailRead = 256 << 10

// RunWindow is the longest run Next hands out unless the run is one larger
// frame: a consumer with a buffer this long reads every other run in place.
const RunWindow = maxTailRead

// MaxRunBytes bounds a run as a consumer may receive it: the largest legal
// record and a window behind it — what one read could complete before runs
// were cut at RunWindow, so a follower still takes such a leader's runs.
const MaxRunBytes = frameOverhead + maxPayloadBytes + maxTailRead

// Tailer follows the log's durable byte stream: every record fsynced to
// a segment, in log-append (byte) order, across segment seals and
// checkpoint retirements.  Only durable bytes are ever returned — a
// record a crash could still un-happen is never shipped.
//
// The tailer's floor is the GSN its consumer already covers via a
// snapshot: records at or below it may be skipped.  That is what makes
// checkpoint retirement safe mid-tail — a retired segment only holds
// records with GSN <= the checkpoint cut, so when the log's newest cut
// is <= floor the tailer silently jumps the gap; otherwise it reports
// ErrTailTruncated and the consumer re-bootstraps.
//
// A Tailer is owned by one goroutine; only Close may be called
// concurrently (it wakes a blocked Next, which then returns
// ErrTailerClosed).
type Tailer struct {
	l     *Log
	floor uint64 // consumer's snapshot coverage: GSNs <= floor are skippable
	seq   uint64 // segment being read
	off   int64  // next unread byte offset within seq
	f     File   // open sequential handle on seq, positioned at off (nil until used)
	// buf holds bytes read from the file: buf[:head] is the run the last Next
	// handed out (the caller's until the next one), buf[head:] is not yet
	// parsed into frames.  A frame longer than the window grows it, and
	// the capacity goes back once the frame is consumed (fill, empty).
	buf  []byte
	head int

	closed bool // under l.mu
}

// Tail returns a Tailer positioned immediately after the durable record
// stamped afterGSN, resuming a consumer whose snapshot coverage is
// floor.  afterGSN 0 starts at the earliest retained byte (valid only
// when floor covers the newest checkpoint cut, or no checkpoint exists).
// ErrTailTruncated means the position is not resumable and the consumer
// must bootstrap from the latest snapshot.
func (l *Log) Tail(afterGSN, floor uint64) (*Tailer, error) {
	if afterGSN == 0 {
		return l.TailSnapshot(floor) // the same position under the same condition
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrLogClosed
	}
	segs := l.retainedLocked()
	l.mu.Unlock()

	// The resume scan is the tailer itself, read forward until it has
	// consumed the frame stamped afterGSN: same window, same CRC check, and
	// what it has read beyond that frame is already its carry.
	t := &Tailer{l: l, floor: floor}
	for _, sg := range segs {
		t.seq, t.off = sg.seq, int64(len(segMagic))
		found, err := t.seek(sg.name, sg.limit, afterGSN)
		if found {
			return t, nil
		}
		t.drop()
		if err != nil {
			// The segment may have been retired mid-scan; report that as
			// a truncation so the caller bootstraps instead of failing.
			if t.retired() {
				return nil, ErrTailTruncated
			}
			return nil, err
		}
	}
	return nil, ErrTailTruncated
}

// TailSnapshot returns a Tailer for a consumer that just applied the
// checkpoint covering cut: it starts at the earliest retained byte with
// floor = cut.  ErrTailTruncated means a newer checkpoint superseded
// cut before the tail began; re-fetch LatestSnapshot and retry.
func (l *Log) TailSnapshot(cut uint64) (*Tailer, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrLogClosed
	}
	if cut < l.snapCut {
		l.mu.Unlock()
		return nil, ErrTailTruncated
	}
	first, _ := l.nextRetainedLocked(0) // sequence numbers start at 1
	l.mu.Unlock()
	return &Tailer{l: l, floor: cut, seq: first, off: int64(len(segMagic))}, nil
}

// LatestSnapshot opens the newest durable checkpoint file, positioned at
// its first byte, and reports its size and the cut it covers; the caller
// closes f.  A nil f with a nil err means no checkpoint exists yet.  A
// concurrent checkpoint can retire the file before it is opened; the open
// retries against the newer snapshot.
func (l *Log) LatestSnapshot() (f File, size int64, cut uint64, err error) {
	for tries := 0; tries < 5; tries++ {
		l.mu.Lock()
		seq, closed := l.snapSeq, l.closed
		size, cut = l.snapSize, l.snapCut
		l.mu.Unlock()
		if closed {
			return nil, 0, 0, ErrLogClosed
		}
		if seq == 0 {
			return nil, 0, 0, nil
		}
		f, err = l.fs.Open(filepath.Join(l.dir, snapName(seq)))
		if err == nil {
			return f, size, cut, nil
		}
		l.mu.Lock()
		raced := l.snapSeq != seq
		l.mu.Unlock()
		if !raced {
			return nil, 0, 0, err
		}
	}
	return nil, 0, 0, fmt.Errorf("wal: snapshot read kept racing with checkpoints")
}

// tailSeg is one retained segment as a Tailer sees it: name plus the
// byte limit it may read (full size for sealed segments, the durable
// watermark for the current one).
type tailSeg struct {
	seq   uint64
	name  string
	limit int64
}

// retainedLocked lists the retained segments in sequence order, the
// current segment last.  Caller holds l.mu.
func (l *Log) retainedLocked() []tailSeg {
	segs := make([]tailSeg, 0, len(l.sealed)+1)
	for _, s := range l.sealed {
		segs = append(segs, tailSeg{seq: s.seq, name: s.name, limit: s.size})
	}
	return append(segs, tailSeg{seq: l.curSeq, name: l.curName, limit: l.curDurable})
}

// windowLocked reports the byte limit a tailer may read in its current
// segment.  live means the segment is the log's current one (the limit
// can still grow); gone means it was retired.  Caller holds l.mu.
func (t *Tailer) windowLocked() (limit int64, name string, live, gone bool) {
	l := t.l
	if t.seq == l.curSeq {
		return l.curDurable, l.curName, true, false
	}
	for _, s := range l.sealed {
		if s.seq == t.seq {
			return s.size, s.name, false, false
		}
	}
	return 0, "", false, true
}

// retired reports whether the tailer's segment was retired: a read that
// failed under it is then a truncation, not an I/O failure.
func (t *Tailer) retired() bool {
	t.l.mu.Lock()
	defer t.l.mu.Unlock()
	_, _, _, gone := t.windowLocked()
	return gone
}

// nextRetainedLocked returns the smallest retained sequence number
// strictly above seq.  Caller holds l.mu; the current segment always
// qualifies, so ok is false only if seq is at or past it.
func (l *Log) nextRetainedLocked(seq uint64) (uint64, bool) {
	if seq >= l.curSeq {
		return 0, false
	}
	next := l.curSeq
	for _, s := range l.sealed {
		if s.seq > seq && s.seq < next {
			next = s.seq
		}
	}
	return next, true
}

// Next returns the next run of durable records in log-append order: whole
// frames, each CRC-verified, as the bytes the log holds — walk them with
// NextFrame.  The run is at most RunWindow long unless it is one longer
// frame (at most MaxRunBytes), and aliases the tailer's buffer: it is valid
// until the next call.
// With wait=true it blocks until records are available (forcing a sync
// of buffered appends first, so FsyncOff logs still ship promptly); with
// wait=false it returns (nil, nil) when caught up.
// Terminal returns: ErrTailTruncated (re-bootstrap), ErrLogClosed (the
// log closed and every durable byte has been returned), ErrTailerClosed
// (Close was called), or the log's sticky error.
func (t *Tailer) Next(wait bool) ([]byte, error) {
	l := t.l
	for {
		run, _, err := t.frames(0)
		if err != nil {
			t.drop()
			return nil, fmt.Errorf("wal: tail %s: %w inside durable window", segName(t.seq), err)
		}
		if len(run) > 0 {
			return run, nil
		}
		l.mu.Lock()
		if t.closed {
			l.mu.Unlock()
			t.drop()
			return nil, ErrTailerClosed
		}
		limit, name, live, gone := t.windowLocked()
		switch {
		case gone:
			// Retired out from under us.  The unread remainder held only
			// records <= the checkpoint cut; without floor coverage the
			// consumer must re-bootstrap.
			next, ok := l.nextRetainedLocked(t.seq)
			covered := l.snapCut <= t.floor
			l.mu.Unlock()
			t.drop()
			if !ok || !covered {
				return nil, ErrTailTruncated
			}
			t.seq, t.off = next, int64(len(segMagic))
		case t.off < limit:
			l.mu.Unlock()
			if err := t.fill(name, limit); err != nil {
				t.drop()
				// Distinguish a retirement race from real I/O failure.
				if t.retired() {
					return nil, ErrTailTruncated
				}
				return nil, err
			}
		case t.head != len(t.buf):
			// Every limit — a sealed size, a durable watermark — is a frame
			// boundary, so bytes left over at one are a frame whose length
			// field lies.
			l.mu.Unlock()
			t.drop()
			return nil, fmt.Errorf("wal: tail %s: %w at the end of the durable window", name, ErrShortFrame)
		case !live:
			// Sealed segment fully consumed: move to the next retained
			// one.  A sequence gap means segments were retired (or
			// removed as headerless at recovery); jumping it is lossless
			// only when the newest checkpoint cut is within our floor.
			next, ok := l.nextRetainedLocked(t.seq)
			if !ok || (next != t.seq+1 && l.snapCut > t.floor) {
				l.mu.Unlock()
				t.drop()
				return nil, ErrTailTruncated
			}
			l.mu.Unlock()
			t.drop()
			t.seq, t.off = next, int64(len(segMagic))
		case l.cur == nil:
			// Closed, and Close's last fsync published: until then the
			// default case below waits that fsync out and ships what it
			// made durable.
			l.mu.Unlock()
			t.drop()
			return nil, ErrLogClosed
		case l.err != nil:
			err := l.err
			l.mu.Unlock()
			t.drop()
			return nil, err
		default:
			// Caught up with the active segment's durable bytes, holding
			// no buffer a large frame grew: push any buffered appends
			// toward durability, then sleep until the window can move.
			t.empty()
			if !wait {
				l.mu.Unlock()
				return nil, nil
			}
			l.syncLocked(l.appended) //nolint:errcheck // a sticky error surfaces next pass
			lim, _, _, gone := t.windowLocked()
			if !gone && lim <= t.off && !t.closed && l.cur != nil && l.err == nil {
				l.tailWaiters++
				l.tailCond.Wait()
				l.tailWaiters--
			}
			l.mu.Unlock()
		}
	}
}

// fill drops the run already handed out and reads up to maxTailRead more
// bytes of the durable window in behind what is left, so the buffer never
// holds more than one read beyond the frame being completed.  A buffer that
// a frame longer than the window grew past twice the window is replaced by
// one of the window's size as soon as what is left and the read fit there.
func (t *Tailer) fill(name string, limit int64) error {
	if t.f == nil {
		f, err := t.l.fs.Open(name)
		if err != nil {
			return err
		}
		t.f = f
		if t.off > 0 {
			if _, err := io.CopyN(io.Discard, f, t.off); err != nil {
				return fmt.Errorf("wal: tail %s: seek to %d: %w", name, t.off, err)
			}
		}
	}
	n := int(min(limit-t.off, maxTailRead))
	rest := t.buf[t.head:]
	if cap(t.buf) > 2*maxTailRead && len(rest)+n <= maxTailRead {
		t.buf = append(make([]byte, 0, maxTailRead), rest...)
	} else {
		t.buf = append(t.buf[:0], rest...)
	}
	t.head = 0
	start := len(t.buf)
	t.buf = slices.Grow(t.buf, n)[:start+n]
	if _, err := io.ReadFull(t.f, t.buf[start:]); err != nil {
		t.buf = t.buf[:start]
		return fmt.Errorf("wal: tail %s: %w", name, err)
	}
	t.off += int64(n)
	return nil
}

// frames verifies the whole frames at the head of the unparsed bytes and
// hands them out as one run, ending it just past a frame stamped until (0
// ends it where the whole frames do, or before a frame that would take it
// past RunWindow).  A frame cut short by the read cap stays unparsed until
// a later fill completes it.
func (t *Tailer) frames(until uint64) (run []byte, found bool, err error) {
	end := t.head
	for !found {
		gsn, _, n, err := NextFrame(t.buf[end:])
		if err == ErrShortFrame {
			break
		}
		if err != nil {
			return nil, false, err
		}
		if until == 0 && end > t.head && end+n-t.head > RunWindow {
			break
		}
		end += n
		found = until != 0 && gsn == until
	}
	run, t.head = t.buf[t.head:end], end
	return run, found, nil
}

// seek reads the first limit bytes of the tailer's segment forward until it
// has consumed the frame stamped gsn, and reports whether it is there.
func (t *Tailer) seek(name string, limit int64, gsn uint64) (bool, error) {
	for {
		_, found, err := t.frames(gsn)
		switch {
		case err != nil:
		case found:
			return true, nil
		case t.off < limit:
			if err := t.fill(name, limit); err != nil {
				return false, err
			}
			continue
		case t.head != len(t.buf):
			err = ErrShortFrame // as in Next: limit is a frame boundary
		default:
			return false, nil
		}
		return false, fmt.Errorf("wal: scan %s: %w inside durable window", name, err)
	}
}

// drop closes the segment handle and empties the buffer.
func (t *Tailer) drop() {
	if t.f != nil {
		t.f.Close() //nolint:errcheck // read-only handle
		t.f = nil
	}
	t.empty()
}

// empty clears the buffer, releasing it if a frame longer than the window
// grew it past twice the window.
func (t *Tailer) empty() {
	t.buf, t.head = t.buf[:0], 0
	if cap(t.buf) > 2*maxTailRead {
		t.buf = nil
	}
}

// Close stops the tailer: a concurrent Next blocked in wait wakes and
// returns ErrTailerClosed (dropping the file handle on its way out).
func (t *Tailer) Close() error {
	l := t.l
	l.mu.Lock()
	if !t.closed {
		t.closed = true
		l.tailCond.Broadcast()
	}
	l.mu.Unlock()
	return nil
}

package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"
)

// nextRecs is Next with the run decoded into records of their own (the run
// itself is the tailer's buffer, good until the next call).
func nextRecs(tl *Tailer, wait bool) ([]Record, error) {
	run, err := tl.Next(wait)
	var out []Record
	for len(run) > 0 {
		gsn, payload, n, ferr := NextFrame(run)
		if ferr != nil {
			return out, fmt.Errorf("run handed out by Next does not decode: %w", ferr)
		}
		out = append(out, Record{GSN: gsn, Payload: bytes.Clone(payload)})
		run = run[n:]
	}
	return out, err
}

// drainTailer collects records with non-blocking Next until the tailer is
// caught up.
func drainTailer(t *testing.T, tl *Tailer) []Record {
	t.Helper()
	var out []Record
	for {
		recs, err := nextRecs(tl, false)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(recs) == 0 {
			return out
		}
		out = append(out, recs...)
	}
}

func gsns(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.GSN
	}
	return out
}

// TestTailStream: a tailer sees every committed record in log-append
// order, across segment seals, and never sees bytes that are not yet
// durable.
func TestTailStream(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{SegmentBytes: 64, Policy: FsyncOff})
	defer l.Close()

	tl, err := l.Tail(0, 0)
	if err != nil {
		t.Fatalf("Tail: %v", err)
	}
	defer tl.Close()

	// FsyncOff: records buffered in the (never-sealed, never-synced)
	// current segment must not be shipped by a non-blocking Next.
	// (Records in SEALED segments are durable regardless of policy —
	// sealing syncs before closing the file.)
	if err := l.Append(1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if recs, err := nextRecs(tl, false); err != nil || len(recs) != 0 {
		t.Fatalf("undurable records shipped: %v, %v", gsns(recs), err)
	}
	for g := uint64(2); g <= 10; g++ {
		if err := l.Append(g, []byte(fmt.Sprintf("v%d", g))); err != nil {
			t.Fatalf("Append(%d): %v", g, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := drainTailer(t, tl)
	if len(got) != 10 {
		t.Fatalf("drained %v, want 1..10", gsns(got))
	}
	for i, r := range got {
		if r.GSN != uint64(i+1) || string(r.Payload) != fmt.Sprintf("v%d", r.GSN) {
			t.Fatalf("record %d = gsn %d payload %q", i, r.GSN, r.Payload)
		}
	}
	if st := l.Stat(); st.Segments < 2 {
		t.Fatalf("expected seals at SegmentBytes=64, got %d segments", st.Segments)
	}
}

// TestTailResume: Tail(afterGSN) continues exactly after the given
// record; an unknown afterGSN is a truncation.
func TestTailResume(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{SegmentBytes: 64})
	defer l.Close()
	for g := uint64(1); g <= 8; g++ {
		appendCommit(t, l, g, fmt.Sprintf("v%d", g))
	}

	tl, err := l.Tail(5, 0)
	if err != nil {
		t.Fatalf("Tail(5): %v", err)
	}
	if got := gsns(drainTailer(t, tl)); len(got) != 3 || got[0] != 6 || got[2] != 8 {
		t.Fatalf("resume after 5 yielded %v, want [6 7 8]", got)
	}
	tl.Close()

	// Resuming at the newest record yields nothing (caught up).
	tl, err = l.Tail(8, 0)
	if err != nil {
		t.Fatalf("Tail(8): %v", err)
	}
	if got := drainTailer(t, tl); len(got) != 0 {
		t.Fatalf("resume at tip yielded %v", gsns(got))
	}
	tl.Close()

	if _, err := l.Tail(99, 0); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("Tail(unknown GSN) = %v, want ErrTailTruncated", err)
	}
}

// TestTailBlockingWake: a Next(wait=true) blocked at the durable tip is
// woken by a later Append and ships it even under FsyncOff (the tailer
// forces the sync itself).
func TestTailBlockingWake(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{Policy: FsyncOff})
	defer l.Close()
	tl, err := l.Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	type result struct {
		recs []Record
		err  error
	}
	done := make(chan result, 1)
	go func() {
		recs, err := nextRecs(tl, true)
		done <- result{recs, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("Next returned early: %v %v", gsns(r.recs), r.err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := l.Append(7, []byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || len(r.recs) != 1 || r.recs[0].GSN != 7 {
			t.Fatalf("woken Next = %v, %v", gsns(r.recs), r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke after Append")
	}
}

// TestTailerCloseWakes: Close from another goroutine unblocks a waiting
// Next with ErrTailerClosed.
func TestTailerCloseWakes(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{})
	defer l.Close()
	tl, err := l.Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tl.Next(true)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tl.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTailerClosed) {
			t.Fatalf("Next after Close = %v, want ErrTailerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke after Close")
	}
}

// TestTailTruncatedBootstrap: a checkpoint strands tailers without floor
// coverage; LatestSnapshot + TailSnapshot is the recovery path, and a
// stale cut is rejected so a bootstrapping consumer can never apply a
// snapshot it cannot tail from.
func TestTailTruncatedBootstrap(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{SegmentBytes: 64})
	defer l.Close()
	for g := uint64(1); g <= 8; g++ {
		appendCommit(t, l, g, fmt.Sprintf("v%d", g))
	}
	if err := l.Checkpoint(8, []byte("snap-8")); err != nil {
		t.Fatal(err)
	}

	// Without floor coverage the earliest retained byte is useless.
	if _, err := l.Tail(0, 0); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("Tail(0, 0) past a checkpoint = %v, want ErrTailTruncated", err)
	}
	f, size, cut, err := l.LatestSnapshot()
	if err != nil || f == nil || cut != 8 {
		t.Fatalf("LatestSnapshot = (%v, %d, %d, %v)", f, size, cut, err)
	}
	file, err := io.ReadAll(f)
	f.Close()
	if fcut, payload, ok := DecodeSnapshot(file); err != nil || int64(len(file)) != size || !ok || fcut != cut || string(payload) != "snap-8" {
		t.Fatalf("snapshot file: %d bytes (size %d), err %v, decodes to (%d, %q, %v)", len(file), size, err, fcut, payload, ok)
	}
	tl, err := l.TailSnapshot(cut)
	if err != nil {
		t.Fatalf("TailSnapshot: %v", err)
	}
	appendCommit(t, l, 9, "v9")
	var after []Record
	for _, r := range drainTailer(t, tl) {
		if r.GSN > cut {
			after = append(after, r)
		}
	}
	if len(after) != 1 || after[0].GSN != 9 {
		t.Fatalf("post-bootstrap stream = %v, want [9]", gsns(after))
	}
	tl.Close()

	// A superseding checkpoint invalidates the older cut.
	if err := l.Checkpoint(9, []byte("snap-9")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.TailSnapshot(8); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("TailSnapshot(stale cut) = %v, want ErrTailTruncated", err)
	}
}

// TestTailGapJumpFloor: retirement is per-segment by max GSN, so a
// middle segment can vanish while its neighbours stay.  A tailer whose
// floor covers the checkpoint cut jumps the gap (the retired records
// were all below the cut); one without coverage must re-bootstrap.
func TestTailGapJumpFloor(t *testing.T) {
	fs := NewMemFS()
	// SegmentBytes 1: every record seals the previous segment.
	l, _ := openMem(t, fs, Options{SegmentBytes: 1})
	defer l.Close()
	appendCommit(t, l, 2, "v2") // seg 1
	appendCommit(t, l, 1, "v1") // seg 2
	appendCommit(t, l, 3, "v3") // seg 3 (current)

	// Retires seg 2 only (maxGSN 1 <= cut); seg 1 (maxGSN 2) stays.
	if err := l.Checkpoint(1, []byte("snap-1")); err != nil {
		t.Fatal(err)
	}

	if _, err := l.Tail(0, 0); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("floorless Tail across a gap = %v, want ErrTailTruncated", err)
	}
	tl, err := l.Tail(0, 1)
	if err != nil {
		t.Fatalf("Tail(0, floor=1): %v", err)
	}
	defer tl.Close()
	if got := gsns(drainTailer(t, tl)); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("gap-jump stream = %v, want [2 3]", got)
	}
}

// TestTailMidStreamRetirement: a checkpoint that retires the segment a
// tailer is parked in (floor not covering) surfaces as ErrTailTruncated,
// not silent record loss.
func TestTailMidStreamRetirement(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{SegmentBytes: 1})
	defer l.Close()
	appendCommit(t, l, 1, "v1") // seg 1
	appendCommit(t, l, 2, "v2") // seg 2
	appendCommit(t, l, 3, "v3") // seg 3 (current)

	tl, err := l.Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	// Park the tailer inside seg 1 by draining nothing yet, then retire
	// seg 1 and 2 out from under it.
	if err := l.Checkpoint(2, []byte("snap-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Next(false); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("Next after retirement = %v, want ErrTailTruncated", err)
	}
}

// TestTailLogClose: a tailer at the tip of a closed log gets
// ErrLogClosed after the final durable byte.
func TestTailLogClose(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{})
	appendCommit(t, l, 1, "v1")
	tl, err := l.Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if got := gsns(drainTailer(t, tl)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pre-close stream = %v", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Next(true); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("Next on closed log = %v, want ErrLogClosed", err)
	}
}

// TestTailResumeCorruptFrame: the resume scan trusts no length it has not
// checked.  A flipped bit in a frame before the resume point — in its
// length, where an unchecked walk lands on a wrong offset, or in its
// payload, where it walks on as if nothing happened — is an error Tail
// reports, not a position it resumes from.
func TestTailResumeCorruptFrame(t *testing.T) {
	for _, at := range []int{0, 1, 5, 10, 17} { // length, length, CRC, GSN, payload of the second frame
		fs := NewMemFS()
		l, _ := openMem(t, fs, Options{})
		for g := uint64(1); g <= 4; g++ {
			appendCommit(t, l, g, fmt.Sprintf("value-%d", g))
		}
		seg := fs.files[filepath.Join("db", segName(1))]
		seg.data[len(segMagic)+frameLen(len("value-1"))+at] ^= 0x04
		if tl, err := l.Tail(1, 0); err != nil { // the scan stops at frame 1, before the damage
			t.Fatalf("byte %d: Tail(1) = %v", at, err)
		} else if _, err := tl.Next(false); !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrShortFrame) {
			t.Fatalf("byte %d: Next over the damaged frame = %v", at, err)
		}
		tl, err := l.Tail(3, 0)
		if err == nil || errors.Is(err, ErrTailTruncated) {
			t.Fatalf("byte %d: Tail(3) past a damaged frame = %v, %v; want the corruption reported", at, tl, err)
		}
		l.Close()
	}
}

// TestTailResumeBoundedMemory: resuming into the last frame of a sealed
// multi-MiB segment reads it through the tailer's window — one read plus
// the frame it cut, never the segment.
func TestTailResumeBoundedMemory(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, Options{SegmentBytes: 4 << 20, Policy: FsyncOff})
	defer l.Close()
	payload := bytes.Repeat([]byte{0x5a}, 1000)
	g := uint64(0)
	for l.Stat().Segments == 1 {
		g++
		if err := l.Append(g, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	tl, err := l.Tail(g-1, 0) // g opened the second segment
	if err != nil {
		t.Fatalf("Tail(%d): %v", g-1, err)
	}
	defer tl.Close()
	// len is what the scan holds; cap is that grown by append's rule.
	if most := maxTailRead + frameLen(len(payload)); len(tl.buf) > most || cap(tl.buf) > 2*maxTailRead {
		t.Fatalf("the scan of a %d-byte segment holds %d bytes (cap %d), want ≤ %d (cap ≤ %d)", l.sealed[0].size, len(tl.buf), cap(tl.buf), most, 2*maxTailRead)
	}
	if got := gsns(drainTailer(t, tl)); len(got) != 1 || got[0] != g {
		t.Fatalf("resume after %d yielded %v, want [%d]", g-1, got, g)
	}
}

// TestTailLargeFrameReleased: a frame longer than the read window grows the
// tailer's buffer to hold it, and that capacity goes back once the frame is
// consumed — after the small records behind it, and once the tailer is
// caught up — to the bound TestTailResumeBoundedMemory states.  Every run
// of small records fits the window.
func TestTailLargeFrameReleased(t *testing.T) {
	l, _ := openMem(t, NewMemFS(), Options{Policy: FsyncOff})
	defer l.Close()
	tl, err := l.Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	big := bytes.Repeat([]byte{0xb1}, 1<<20+1)
	if err := l.Append(1, big); err != nil {
		t.Fatal(err)
	}
	small := bytes.Repeat([]byte{0x5a}, 1000)
	for g := uint64(2); g <= 600; g++ { // > 2 windows of small records
		if err := l.Append(g, small); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	grown := 0
	for {
		run, err := tl.Next(false)
		if err != nil {
			t.Fatal(err)
		}
		if len(run) == 0 {
			break
		}
		grown = max(grown, cap(tl.buf))
		gsn, _, n, _ := NextFrame(run)
		if gsn != 1 && len(run) > RunWindow {
			t.Fatalf("a run of small records from gsn %d is %d bytes, want ≤ %d", gsn, len(run), RunWindow)
		}
		for ; len(run) > 0; run = run[n:] {
			gsn, _, n, _ = NextFrame(run)
			got = append(got, gsn)
		}
	}
	if len(got) != 600 || got[0] != 1 || got[599] != 600 {
		t.Fatalf("tailed %d records (%v…), want gsns 1..600", len(got), got[:min(len(got), 3)])
	}
	if grown < len(big) {
		t.Fatalf("the buffer never held the %d-byte frame (cap ≤ %d)", len(big), grown)
	}
	if cap(tl.buf) > 2*maxTailRead {
		t.Fatalf("after the small records the buffer keeps cap %d, want ≤ %d", cap(tl.buf), 2*maxTailRead)
	}

	// The same frame last: a tailer caught up holds nothing.
	if err := l.Append(601, big); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if recs := drainTailer(t, tl); len(recs) != 1 || recs[0].GSN != 601 {
		t.Fatalf("tailed %d records, want gsn 601", len(recs))
	}
	if cap(tl.buf) > 2*maxTailRead {
		t.Fatalf("a tailer caught up after a %d-byte frame keeps cap %d, want ≤ %d", len(big), cap(tl.buf), 2*maxTailRead)
	}
}

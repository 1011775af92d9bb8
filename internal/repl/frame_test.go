package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mvgc/internal/wal"
)

// frameBytes encodes frames through the writers the shipper uses.
func frameBytes(t *testing.T, write func(w *bufio.Writer) error) []byte {
	t.Helper()
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	if err := write(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// header is a frame header claiming a body of n bytes.
func header(tag byte, n uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{tag}, n)
}

// TestFrameRoundTrip: all four tags survive write → read, in order, through
// one reused buffer — the empty bodies of 'S' and 'E' and an empty chunk
// included.
func TestFrameRoundTrip(t *testing.T) {
	chunk := bytes.Repeat([]byte("snapshot-chunk."), 5000) // larger than bufio's buffer
	run := wal.AppendFrame(wal.AppendFrame(nil, 7, []byte("one redo record")), 8, nil)
	frames := []struct {
		tag  byte
		body []byte
	}{{TagSnapBegin, nil}, {TagSnapChunk, chunk}, {TagSnapChunk, nil}, {TagSnapEnd, nil}, {TagRecord, run}}
	stream := frameBytes(t, func(w *bufio.Writer) error {
		var err error
		for _, f := range frames {
			err = errors.Join(err, WriteFrame(w, f.tag, f.body))
		}
		return err
	})
	r := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range frames {
		tag, body, err := ReadFrame(r, buf)
		if err != nil || tag != want.tag || !bytes.Equal(body, want.body) {
			t.Fatalf("frame %d: tag %q, %d bytes, err %v; want tag %q, %d bytes", i, tag, len(body), err, want.tag, len(want.body))
		}
		buf = body[:0]
	}
	if _, _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want io.EOF", err)
	}
}

// TestReadFrameOversize: a header claiming more than the limit is rejected
// before any body byte is read.
func TestReadFrameOversize(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader(header(TagRecord, maxFrameBody+1)))
	if _, _, err := ReadFrame(r, nil); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize header: %v", err)
	}
}

// TestReadFrameTruncated: a stream that ends inside the header or anywhere
// inside the body — at its first byte, in the middle, one short — is an
// unexpected EOF, never a frame.
func TestReadFrameTruncated(t *testing.T) {
	whole := frameBytes(t, func(w *bufio.Writer) error { return WriteFrame(w, TagRecord, make([]byte, 112)) })
	for _, keep := range []int{3, 5, 60, len(whole) - 1} {
		r := bufio.NewReader(bytes.NewReader(whole[:keep]))
		if _, _, err := ReadFrame(r, nil); err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at %d of %d bytes: %v, want io.ErrUnexpectedEOF", keep, len(whole), err)
		}
	}
}

// TestReadFrameAllocationBound: the header's length is a claim.  A header
// promising the largest legal body over a stream that delivers ten bytes
// fails having allocated a few growth steps at most (the race detector
// adds its own), not the gigabyte claimed.
func TestReadFrameAllocationBound(t *testing.T) {
	stream := append(header(TagRecord, maxFrameBody), make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(stream)), nil)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("short stream: %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*frameGrowBytes {
		t.Fatalf("a ten-byte body behind a %d-byte claim allocated %d bytes, want ≤ %d", maxFrameBody, got, 4*frameGrowBytes)
	}
}

// TestReadFrameGrowsInSteps: a body larger than one growth step arrives
// whole through a buffer that started empty.
func TestReadFrameGrowsInSteps(t *testing.T) {
	body := bytes.Repeat([]byte{0xa5, 0x5a, 0x01}, frameGrowBytes) // three steps
	stream := frameBytes(t, func(w *bufio.Writer) error { return WriteFrame(w, TagSnapChunk, body) })
	tag, got, err := ReadFrame(bufio.NewReader(bytes.NewReader(stream)), nil)
	if err != nil || tag != TagSnapChunk || !bytes.Equal(got, body) {
		t.Fatalf("tag %q, %d of %d bytes, err %v", tag, len(got), len(body), err)
	}
}

// replayLog is an Applier that records what the stream asked of it, and
// calls onReplay, when set, with each record it applies.
type replayLog struct {
	gsns     []uint64
	payloads []string
	snapCut  uint64
	snap     string
	syncs    int
	onReplay func(gsn uint64)
}

func (r *replayLog) ReplayRecord(gsn uint64, payload []byte) error {
	r.gsns, r.payloads = append(r.gsns, gsn), append(r.payloads, string(payload))
	if r.onReplay != nil {
		r.onReplay(gsn)
	}
	return nil
}

func (r *replayLog) ApplyReplSnapshot(cut uint64, payload []byte) error {
	r.snapCut, r.snap = cut, string(payload)
	return nil
}

func (r *replayLog) SyncWAL() error { r.syncs++; return nil }

// follow runs one connection's worth of stream through a follower whose
// floor is already at floor, and returns what broke the loop.
func follow(t *testing.T, stream []byte, floor uint64) (*Follower, *replayLog, error) {
	t.Helper()
	db := &replayLog{}
	f, err := followInto(t, db, stream, floor)
	return f, db, err
}

// followInto is follow applying to db, reading the stream through a buffer
// of the follower's own size.
func followInto(t *testing.T, db *replayLog, stream []byte, floor uint64) (*Follower, error) {
	t.Helper()
	f := &Follower{cfg: Config{DB: db, Dir: "follower", FS: wal.NewMemFS()}}
	f.floor.Store(floor)
	return f, f.frameLoop(bufio.NewReaderSize(bytes.NewReader(stream), streamWindow))
}

// liveHeap is the heap's live bytes after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFollowerLargeFrameReleased: a run of one record longer than the
// follower's read window is read into a buffer of its own, and once the run
// is applied the follower keeps nothing of it — the live heap while the
// small runs behind it apply is what it was before it.  The large record
// sits at the floor, so it is read but not applied (nor copied by the fake
// Applier).
func TestFollowerLargeFrameReleased(t *testing.T) {
	big := wal.AppendFrame(nil, 1, make([]byte, 1<<20))
	stream := frameBytes(t, func(w *bufio.Writer) error {
		err := errors.Join(
			WriteFrame(w, TagRecord, wal.AppendFrame(nil, 2, []byte("before"))),
			WriteFrame(w, TagRecord, big),
		)
		for g := uint64(3); g < 40; g++ {
			err = errors.Join(err, WriteFrame(w, TagRecord, wal.AppendFrame(nil, g, []byte("after"))))
		}
		return err
	})
	heap := map[uint64]uint64{}
	db := &replayLog{onReplay: func(gsn uint64) {
		if gsn == 2 || gsn == 39 {
			heap[gsn] = liveHeap()
		}
	}}
	if _, err := followInto(t, db, stream, 1); err != io.EOF || len(db.gsns) != 38 {
		t.Fatalf("applied %d records, frame loop ended with %v; want 38 and io.EOF", len(db.gsns), err)
	}
	if kept := int64(heap[39]) - int64(heap[2]); kept > streamWindow {
		t.Fatalf("after a %d-byte run the follower keeps %d more live bytes, want ≤ %d", len(big), kept, streamWindow)
	}
}

// TestFollowerRunAcrossFloor: one 'R' frame carries a run of the log's own
// frames, out of GSN order as two shards' commits can be, with the floor in
// the middle of it.  Every record moves the position; only those above the
// floor are applied; the run is synced once, when it and the read buffer
// are both spent.
func TestFollowerRunAcrossFloor(t *testing.T) {
	var run []byte
	for _, g := range []uint64{4, 6, 5, 8, 7} {
		run = wal.AppendFrame(run, g, fmt.Appendf(nil, "v%d", g))
	}
	stream := frameBytes(t, func(w *bufio.Writer) error { return WriteFrame(w, TagRecord, run) })
	f, db, err := follow(t, stream, 5)
	if err != io.EOF {
		t.Fatalf("frame loop ended with %v, want io.EOF after the last frame", err)
	}
	if want := []uint64{6, 8, 7}; !slices.Equal(db.gsns, want) || !slices.Equal(db.payloads, []string{"v6", "v8", "v7"}) {
		t.Fatalf("applied %v %q, want %v", db.gsns, db.payloads, want)
	}
	if pos, floor := f.Pos(); pos != 7 || floor != 5 || f.Applied() != 8 {
		t.Fatalf("pos %d floor %d applied %d, want 7, 5, 8", pos, floor, f.Applied())
	}
	if db.syncs != 1 {
		t.Fatalf("%d syncs for one run, want 1", db.syncs)
	}
}

// TestFollowerRunCorrupt: the follower trusts no byte of a run it has not
// checked — a flipped bit anywhere in a frame, or a run that ends inside
// one, stops the stream with that frame and everything after it unapplied.
func TestFollowerRunCorrupt(t *testing.T) {
	first := wal.AppendFrame(nil, 1, []byte("first"))
	run := wal.AppendFrame(bytes.Clone(first), 2, []byte("second"))
	for at := len(first); at <= len(run); at++ {
		bad := bytes.Clone(run)
		if at < len(run) {
			bad[at] ^= 0x10
		} else {
			bad = bad[:len(run)-1]
		}
		stream := frameBytes(t, func(w *bufio.Writer) error { return WriteFrame(w, TagRecord, bad) })
		f, db, err := follow(t, stream, 0)
		if !errors.Is(err, wal.ErrBadFrame) && !errors.Is(err, wal.ErrShortFrame) {
			t.Fatalf("damage at byte %d: frame loop ended with %v", at, err)
		}
		if pos, _ := f.Pos(); pos != 1 || !slices.Equal(db.gsns, []uint64{1}) {
			t.Fatalf("damage at byte %d: applied %v, pos %d; want the intact first record only", at, db.gsns, pos)
		}
	}
}

// TestFollowerSnapshot: the checkpoint file travels as the log wrote it, in
// chunks, and is decoded by the codec recovery uses; a damaged or unfinished
// transfer is refused whole, and a second 'S' starts the file over.
func TestFollowerSnapshot(t *testing.T) {
	fs := wal.NewMemFS()
	l, err := wal.Create(wal.Options{Dir: "leader", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Checkpoint(41, []byte("the whole map")); err != nil {
		t.Fatal(err)
	}
	fh, size, _, err := l.LatestSnapshot()
	if err != nil || fh == nil {
		t.Fatalf("LatestSnapshot: %v, %v", fh, err)
	}
	file, err := io.ReadAll(fh)
	fh.Close()
	if err != nil || int64(len(file)) != size {
		t.Fatalf("read %d of %d snapshot bytes: %v", len(file), size, err)
	}
	send := func(file []byte) []byte {
		return frameBytes(t, func(w *bufio.Writer) error {
			return errors.Join(
				WriteFrame(w, TagSnapBegin, nil),
				WriteFrame(w, TagSnapChunk, file[:10]), // abandoned: the next 'S' starts over
				WriteFrame(w, TagSnapBegin, nil),
				WriteFrame(w, TagSnapChunk, file[:10]),
				WriteFrame(w, TagSnapChunk, file[10:]),
				WriteFrame(w, TagSnapEnd, nil),
			)
		})
	}
	f, db, err := follow(t, send(file), 7)
	if err != io.EOF || db.snapCut != 41 || db.snap != "the whole map" {
		t.Fatalf("intact file: err %v, applied cut %d %q", err, db.snapCut, db.snap)
	}
	if pos, floor := f.Pos(); pos != 0 || floor != 41 || f.Applied() != 41 {
		t.Fatalf("pos %d floor %d applied %d after the bootstrap, want 0, 41, 41", pos, floor, f.Applied())
	}
	bad := bytes.Clone(file)
	bad[len(bad)/2] ^= 1
	// The header declares the file's length: chunks past it are refused as
	// they arrive, and an 'E' short of it before anything is validated.
	for name, file := range map[string][]byte{"bit flip": bad, "cut short": file[:len(file)-1], "too long": append(bytes.Clone(file), 0)} {
		f, db, err := follow(t, send(file), 7)
		if err == nil || err == io.EOF || db.snap != "" {
			t.Fatalf("%s: err %v, applied %q", name, err, db.snap)
		}
		if _, floor := f.Pos(); floor != 7 {
			t.Fatalf("%s: floor moved to %d", name, floor)
		}
	}

	// A declared length is a claim.  One damaged into gigabytes buys room
	// snapTrustBytes ahead of the bytes that arrive, not the claim, and the
	// stream fails when 'E' comes short of it.
	var claim int64
	for at := 0; at < len(file) && claim < 1<<30; at++ {
		bad = bytes.Clone(file)
		bad[at] ^= 1
		claim, _ = wal.SnapshotFileLen(bad)
	}
	if claim < 1<<30 {
		t.Fatal("no single bit of the header inflates the declared length")
	}
	stream := frameBytes(t, func(w *bufio.Writer) error {
		return errors.Join(
			WriteFrame(w, TagSnapBegin, nil),
			WriteFrame(w, TagSnapChunk, bad),
			WriteFrame(w, TagSnapChunk, make([]byte, snapChunkBytes)),
			WriteFrame(w, TagSnapChunk, make([]byte, snapChunkBytes)),
			WriteFrame(w, TagSnapEnd, nil),
		)
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, db, err = follow(t, stream, 7)
	runtime.ReadMemStats(&after)
	if err == nil || err == io.EOF || db.snap != "" {
		t.Fatalf("%d-byte claim: err %v, applied %q", claim, err, db.snap)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*snapTrustBytes {
		t.Fatalf("%d bytes behind a %d-byte claim allocated %d, want ≤ %d", len(bad)+2*snapChunkBytes, claim, got, 2*snapTrustBytes)
	}

	// An honest file is allocated once: the whole transfer costs its own
	// length and the first chunk's, not the doubling an append pays.
	big := make([]byte, 8<<20)
	if err := l.Checkpoint(42, big); err != nil {
		t.Fatal(err)
	}
	fh, size, _, err = l.LatestSnapshot()
	if err != nil || fh == nil {
		t.Fatalf("LatestSnapshot: %v, %v", fh, err)
	}
	defer fh.Close()
	stream = frameBytes(t, func(w *bufio.Writer) error { return (&Shipper{bw: w}).sendSnapshot(fh, size) })
	runtime.ReadMemStats(&before)
	_, db, err = follow(t, stream, 7)
	runtime.ReadMemStats(&after)
	if err != io.EOF || db.snapCut != 42 || len(db.snap) != len(big) {
		t.Fatalf("%d-byte file: err %v, applied cut %d, %d bytes", size, err, db.snapCut, len(db.snap))
	}
	// The fake Applier's copy of the payload is one more length.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*size+4*snapChunkBytes); got > limit {
		t.Fatalf("receiving a %d-byte file allocated %d bytes, want ≤ %d", size, got, limit)
	}
}

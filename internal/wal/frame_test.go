package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"testing"
)

// walkFrames runs the one decoder over b the way every reader does and
// checks, independently of it, what it may never get wrong: a frame stays
// inside the input, and a payload is handed out only if the CRC in front of
// it matches.  It returns the records and the offset the walk stopped at.
func walkFrames(t *testing.T, b []byte) (recs []Record, stopped int, err error) {
	t.Helper()
	for {
		gsn, payload, n, err := NextFrame(b[stopped:])
		if err != nil {
			if err != ErrShortFrame && err != ErrBadFrame {
				t.Fatalf("NextFrame at %d: unexpected error %v", stopped, err)
			}
			if n != 0 || payload != nil {
				t.Fatalf("NextFrame at %d: %v yet %d bytes consumed, payload %q", stopped, err, n, payload)
			}
			return recs, stopped, err
		}
		frame := b[stopped:]
		if n < frameOverhead || n > len(frame) || n != frameLen(len(payload)) {
			t.Fatalf("NextFrame at %d: consumed %d of %d bytes for a payload of %d", stopped, n, len(frame), len(payload))
		}
		if sum := crc32.Checksum(frame[8:n], crcTable); sum != binary.LittleEndian.Uint32(frame[4:]) {
			t.Fatalf("NextFrame at %d: handed out a payload whose CRC fails", stopped)
		}
		if binary.LittleEndian.Uint64(frame[8:]) != gsn || !bytes.Equal(frame[16:n], payload) {
			t.Fatalf("NextFrame at %d: gsn %d payload %q are not the frame's", stopped, gsn, payload)
		}
		recs = append(recs, Record{GSN: gsn, Payload: payload})
		stopped += n
	}
}

// FuzzFrame drives the one record codec.  For arbitrary bytes: NextFrame
// never panics, never consumes past its input, never returns a payload
// whose CRC fails (walkFrames), and recovery's verdict on a segment holding
// those bytes — the records, the torn-tail offset it would truncate to — is
// exactly where the walk stops.  For an arbitrary payload: AppendFrame and
// NextFrame are inverses, behind any prefix.
func FuzzFrame(f *testing.F) {
	whole := AppendFrame(AppendFrame(AppendFrame(nil, 1, []byte("v1")), 3, nil), 2, bytes.Repeat([]byte{0xa5}, 300))
	f.Add([]byte{}, uint64(0))
	f.Add(whole, uint64(7))
	// The crash matrix's torn variants — the durable frames plus 0 (above)
	// or 3 bytes of the next one — then tears at the end of its header, in
	// its GSN, and one byte short of whole.
	next := AppendFrame(nil, 4, []byte("never acked"))
	for _, torn := range []int{3, 8, 12, len(next) - 1} {
		f.Add(append(bytes.Clone(whole), next[:torn]...), uint64(torn))
	}
	for _, at := range []int{0, 5, 9, 17, len(whole) - 1} { // length, CRC, GSN, payload
		bad := bytes.Clone(whole)
		bad[at] ^= 0x40
		f.Add(bad, uint64(at))
	}
	f.Add(binary.LittleEndian.AppendUint32(nil, maxRecordBytes+1), uint64(1)) // a length no frame may claim
	f.Add(binary.LittleEndian.AppendUint32(nil, 7), uint64(1))                // a body too short for its GSN

	f.Fuzz(func(t *testing.T, b []byte, gsn uint64) {
		recs, stopped, _ := walkFrames(t, b)

		fs := NewMemFS()
		name := filepath.Join("d", segName(1))
		seg, _ := fs.Create(name)
		seg.Write(append([]byte(segMagic), b...)) //nolint:errcheck // MemFS
		got, maxGSN, good, size, torn, err := readSegment(fs, name)
		if err != nil || size != int64(len(segMagic)+len(b)) {
			t.Fatalf("readSegment: size %d, err %v", size, err)
		}
		if good != int64(len(segMagic)+stopped) || torn != (stopped != len(b)) || len(got) != len(recs) {
			t.Fatalf("readSegment: %d records, good %d, torn %v; the decoder stops after %d records at %d of %d bytes",
				len(got), good, torn, len(recs), len(segMagic)+stopped, size)
		}
		for i, r := range got {
			if r.GSN != recs[i].GSN || !bytes.Equal(r.Payload, recs[i].Payload) || r.GSN > maxGSN {
				t.Fatalf("readSegment: record %d = (%d, %q) under max %d, want (%d, %q)", i, r.GSN, r.Payload, maxGSN, recs[i].GSN, recs[i].Payload)
			}
		}

		framed := AppendFrame(bytes.Clone(b), gsn, b)
		g, payload, n, err := NextFrame(framed[len(b):])
		if err != nil || g != gsn || !bytes.Equal(payload, b) || n != len(framed)-len(b) || n != frameLen(len(b)) {
			t.Fatalf("round trip of gsn %d, %d-byte payload: (%d, %d bytes, n %d, %v)", gsn, len(b), g, len(payload), n, err)
		}
		if _, _, _, err := NextFrame(framed[len(b) : len(framed)-1]); err != ErrShortFrame {
			t.Fatalf("a frame one byte short: %v, want ErrShortFrame", err)
		}
	})
}

// TestSnapshotCodec: the header and trailer the checkpoint writes around a
// payload decode back to it; every single-byte damage and every truncation
// is refused; the header alone tells how long the file is.
func TestSnapshotCodec(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("p"), bytes.Repeat([]byte("payload."), 100)} {
		header, trailer := snapshotEnds(9, payload)
		file := append(append(header[:], payload...), trailer[:]...)
		cut, got, ok := DecodeSnapshot(file)
		if !ok || cut != 9 || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte payload: decoded (%d, %d bytes, %v)", len(payload), cut, len(got), ok)
		}
		for at := range file {
			bad := bytes.Clone(file)
			bad[at] ^= 0x01
			if _, _, ok := DecodeSnapshot(bad); ok {
				t.Fatalf("%d-byte payload: byte %d flipped and the file still decodes", len(payload), at)
			}
			if _, _, ok := DecodeSnapshot(file[:at]); ok {
				t.Fatalf("%d-byte payload: the first %d bytes decode as a whole file", len(payload), at)
			}
			// Every prefix begins this file: short of the header it
			// declares the shortest file there is, from the header on the
			// file's own length.
			want := int64(len(file))
			if at < snapHeaderLen {
				want = int64(snapHeaderLen + snapTrailerLen)
			}
			if n, ok := SnapshotFileLen(file[:at]); !ok || n != want {
				t.Fatalf("%d-byte payload: the first %d bytes declare (%d, %v), want %d", len(payload), at, n, ok, want)
			}
		}
		header[0] ^= 0x01
		if _, ok := SnapshotFileLen(header[:1]); ok {
			t.Fatal("a wrong first magic byte begins a snapshot file")
		}
		header[0] ^= 0x01
		header[snapHeaderLen-1] = 0x80 // a payload of 2^63 bytes
		if _, ok := SnapshotFileLen(header[:]); ok {
			t.Fatal("a header declaring 2^63 payload bytes begins a snapshot file")
		}
	}
}

// Golden files: a directory written by the commit before frame.go existed
// (Append 1 "one", 2 "", 3 "three"; Commit; Checkpoint(2); Append 5, then 4;
// Commit; Close — with the default options on the real filesystem).
const (
	goldenSegment  = "MVWAL001\v\x00\x00\x00\xaaPPw\x01\x00\x00\x00\x00\x00\x00\x00one\b\x00\x00\x00\xc4HP\x1e\x02\x00\x00\x00\x00\x00\x00\x00\r\x00\x00\x00\xc2\xca\x1b\xb4\x03\x00\x00\x00\x00\x00\x00\x00three \x00\x00\x00\xff\xce`\x13\x05\x00\x00\x00\x00\x00\x00\x00five, logged before four\f\x00\x00\x004\x943N\x04\x00\x00\x00\x00\x00\x00\x00four"
	goldenSnapshot = "MVCKPT01\x02\x00\x00\x00\x00\x00\x00\x00\x17\x00\x00\x00\x00\x00\x00\x00golden snapshot payload#\xc3,\x80"
)

// TestGoldenDirectory: no on-disk format bump.  The parent commit's bytes
// open to the same cut and records, and the same operations still write
// those bytes.
func TestGoldenDirectory(t *testing.T) {
	fs := NewMemFS()
	for name, data := range map[string]string{segName(1): goldenSegment, snapName(1): goldenSnapshot} {
		f, _ := fs.Create(filepath.Join("golden", name))
		f.Write([]byte(data)) //nolint:errcheck // MemFS
		f.Sync()              //nolint:errcheck
	}
	fs.SyncDir("golden") //nolint:errcheck
	l, rec := openMem(t, fs, Options{Dir: "golden"})
	defer l.Close()
	if rec.SnapshotCut != 2 || string(rec.Snapshot) != "golden snapshot payload" || rec.MaxGSN != 5 {
		t.Fatalf("recovered cut %d, snapshot %q, max GSN %d", rec.SnapshotCut, rec.Snapshot, rec.MaxGSN)
	}
	want := []Record{{3, []byte("three")}, {4, []byte("four")}, {5, []byte("five, logged before four")}}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %v, want GSNs 3, 4, 5", gsns(rec.Records))
	}
	for i, r := range rec.Records {
		if r.GSN != want[i].GSN || !bytes.Equal(r.Payload, want[i].Payload) {
			t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, r.GSN, r.Payload, want[i].GSN, want[i].Payload)
		}
	}

	fs = NewMemFS()
	w, _ := openMem(t, fs, Options{Dir: "fresh"})
	for _, r := range []Record{{1, []byte("one")}, {2, nil}, {3, []byte("three")}} {
		if err := w.Append(r.GSN, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(2, []byte("golden snapshot payload")); err != nil {
		t.Fatal(err)
	}
	appendCommit(t, w, 5, "five, logged before four")
	appendCommit(t, w, 4, "four")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{segName(1): goldenSegment, snapName(1): goldenSnapshot} {
		got, err := readFile(fs, filepath.Join("fresh", name))
		if err != nil || string(got) != want {
			t.Fatalf("%s written today: %q (err %v), the parent wrote %q", name, got, err, want)
		}
	}
}

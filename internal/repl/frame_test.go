package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
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
// one reused buffer, and the record frame decodes to its GSN and payload.
func TestFrameRoundTrip(t *testing.T) {
	cut := binary.LittleEndian.AppendUint64(nil, 42)
	chunk := bytes.Repeat([]byte("snapshot-chunk."), 5000) // larger than bufio's buffer
	sum := binary.LittleEndian.AppendUint32(nil, 0xdeadbeef)
	payload := []byte("one redo record")
	stream := frameBytes(t, func(w *bufio.Writer) error {
		return errors.Join(
			WriteFrame(w, TagSnapBegin, cut),
			WriteFrame(w, TagSnapChunk, chunk),
			WriteFrame(w, TagSnapChunk, nil),
			WriteFrame(w, TagSnapEnd, sum),
			WriteRecordFrame(w, 7, payload),
		)
	})
	r := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range []struct {
		tag  byte
		body []byte
	}{{TagSnapBegin, cut}, {TagSnapChunk, chunk}, {TagSnapChunk, nil}, {TagSnapEnd, sum}} {
		tag, body, err := ReadFrame(r, buf)
		if err != nil || tag != want.tag || !bytes.Equal(body, want.body) {
			t.Fatalf("frame %d: tag %q, %d bytes, err %v; want tag %q, %d bytes", i, tag, len(body), err, want.tag, len(want.body))
		}
		buf = body[:0]
	}
	tag, body, err := ReadFrame(r, buf)
	if err != nil || tag != TagRecord {
		t.Fatalf("record frame: tag %q, err %v", tag, err)
	}
	gsn, got, err := DecodeRecord(body)
	if err != nil || gsn != 7 || !bytes.Equal(got, payload) {
		t.Fatalf("DecodeRecord = %d, %q, %v", gsn, got, err)
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
	whole := frameBytes(t, func(w *bufio.Writer) error { return WriteRecordFrame(w, 1, make([]byte, 100)) })
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

// TestDecodeRecordCorrupt: a flipped payload bit, a flipped CRC bit and a
// body shorter than the record header are all refused.
func TestDecodeRecordCorrupt(t *testing.T) {
	frame := frameBytes(t, func(w *bufio.Writer) error { return WriteRecordFrame(w, 9, []byte("payload")) })
	body := frame[5:]
	if _, _, err := DecodeRecord(body); err != nil {
		t.Fatalf("intact record: %v", err)
	}
	for _, at := range []int{8, len(body) - 1} { // CRC field, payload
		bad := bytes.Clone(body)
		bad[at] ^= 0x10
		if _, _, err := DecodeRecord(bad); err == nil || !strings.Contains(err.Error(), "failed CRC") {
			t.Fatalf("bit flipped at %d: %v", at, err)
		}
	}
	if _, _, err := DecodeRecord(body[:11]); err == nil {
		t.Fatal("an 11-byte record body decoded")
	}
}

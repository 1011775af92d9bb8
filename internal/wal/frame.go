package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
)

// This file is the only one that knows a byte offset of the log's two
// formats.  Everything that reads or writes them — the appender, recovery,
// the Tailer and its resume scan, the checkpoint writer, and the follower
// on the far end of a replication stream, which receives these bytes
// verbatim — goes through the functions below, so a format change is an
// edit here and nowhere else.
//
// A segment is segMagic followed by record frames:
//
//	u32 body length | u32 CRC-32C of the body | body = u64 GSN | payload
//
// A snapshot file is
//
//	snapMagic | u64 cut | u64 payload length | payload | u32 CRC-32C
//
// with the CRC over cut, length and payload.  Integers are little-endian.

const (
	segMagic  = "MVWAL001"
	snapMagic = "MVCKPT01"
	// frameOverhead is what a frame adds to its payload: length, CRC, GSN.
	frameOverhead = 4 + 4 + 8
	// maxRecordBytes bounds a single record body; a larger length field is
	// a torn or corrupt frame.
	maxRecordBytes = 1 << 30
	// maxPayloadBytes is the largest payload AppendFrame may be given.
	maxPayloadBytes = maxRecordBytes - 8

	snapHeaderLen  = len(snapMagic) + 8 + 8
	snapTrailerLen = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrShortFrame means b ends before the frame at its head does: more
	// bytes may complete it.  At the end of a file it is a torn tail.
	ErrShortFrame = errors.New("wal: short frame")
	// ErrBadFrame means no number of further bytes makes the head of b a
	// frame: its length field is out of range or its CRC does not match.
	ErrBadFrame = errors.New("wal: bad frame length or CRC")
)

// frameLen is the encoded size of a record with a payload of n bytes.
func frameLen(n int) int { return frameOverhead + n }

// AppendFrame encodes one record onto dst.
func AppendFrame(dst []byte, gsn uint64, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(8+len(payload)))
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // CRC placeholder
	dst = binary.LittleEndian.AppendUint64(dst, gsn)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start+4:], crcTable)
	binary.LittleEndian.PutUint32(dst[start:], crc)
	return dst
}

// NextFrame decodes the record frame at the head of b and reports the n
// bytes it occupies; payload aliases b.  A frame is returned only with its
// CRC verified.  ErrShortFrame and ErrBadFrame (n = 0) tell "read more"
// from "corrupt"; an empty b is a short frame.
func NextFrame(b []byte) (gsn uint64, payload []byte, n int, err error) {
	if len(b) < 8 {
		return 0, nil, 0, ErrShortFrame
	}
	blen := int(binary.LittleEndian.Uint32(b))
	if blen < 8 || blen > maxRecordBytes {
		return 0, nil, 0, ErrBadFrame
	}
	if len(b)-8 < blen {
		return 0, nil, 0, ErrShortFrame
	}
	body := b[8 : 8+blen]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, nil, 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint64(body), body[8:], 8 + blen, nil
}

// snapshotEnds returns what a snapshot file holds before and after its
// payload, so the writer never copies the (map-sized) payload to frame it.
func snapshotEnds(cut uint64, payload []byte) (header [snapHeaderLen]byte, trailer [snapTrailerLen]byte) {
	copy(header[:], snapMagic)
	binary.LittleEndian.PutUint64(header[len(snapMagic):], cut)
	binary.LittleEndian.PutUint64(header[len(snapMagic)+8:], uint64(len(payload)))
	crc := crc32.Update(crc32.Checksum(header[len(snapMagic):], crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(trailer[:], crc)
	return header, trailer
}

// maxSnapshotBytes bounds the payload length a snapshot header may declare;
// a larger one is damage, not a map.
const maxSnapshotBytes = 1 << 40

// SnapshotFileLen reports how long the snapshot file that begins with
// prefix is, so that a receiver of one can size its buffer once and knows
// when it has been sent too much.  While prefix is shorter than the file's
// header, n is the shortest a file can be.  ok is false when no file begins
// with prefix: the magic is wrong, or the declared length is one no file
// (and no int) holds.
func SnapshotFileLen(prefix []byte) (n int64, ok bool) {
	if m := min(len(prefix), len(snapMagic)); string(prefix[:m]) != snapMagic[:m] {
		return 0, false
	}
	n = int64(snapHeaderLen + snapTrailerLen)
	if len(prefix) < snapHeaderLen {
		return n, true
	}
	plen := binary.LittleEndian.Uint64(prefix[len(snapMagic)+8:])
	if plen > maxSnapshotBytes || plen > uint64(math.MaxInt)-uint64(n) {
		return 0, false
	}
	return n + int64(plen), true
}

// DecodeSnapshot validates the bytes of a whole snapshot file; payload
// aliases file.  ok is false for anything but an intact file — an
// interrupted checkpoint on disk, a damaged transfer on the wire.
func DecodeSnapshot(file []byte) (cut uint64, payload []byte, ok bool) {
	if len(file) < snapHeaderLen+snapTrailerLen || string(file[:len(snapMagic)]) != snapMagic {
		return 0, nil, false
	}
	body := file[len(snapMagic) : len(file)-snapTrailerLen]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(file[len(file)-snapTrailerLen:]) {
		return 0, nil, false
	}
	cut = binary.LittleEndian.Uint64(body)
	if binary.LittleEndian.Uint64(body[8:]) != uint64(len(body)-16) {
		return 0, nil, false
	}
	return cut, body[16:], true
}

// Package repl is log-shipping replication: a leader-side Shipper that
// lifts durable records out of the WAL with a wal.Tailer and streams
// them to a follower, and a follower-side Follower that replays the
// stream through the map's GSN-ordered apply path.
//
// The stream rides a netproto connection: the follower sends a normal
// RESP command (REPL <afterGSN> <floor>) and, after the +OK, the
// connection stops speaking RESP and carries raw binary frames forever —
// records can exceed netproto's MaxBulk, so they do not travel as bulk
// strings.  A frame is
//
//	u8 tag | u32 little-endian body length | body
//
// with four tags:
//
//	'S'  u64 cut — a snapshot bootstrap begins (the follower's resume
//	     position was not retained); the follower resets its snapshot
//	     accumulator
//	'c'  one chunk of the snapshot payload
//	'E'  u32 CRC-32C of the whole payload — the follower verifies and
//	     applies the snapshot, floors its GSN at cut, and resets its
//	     stream position
//	'R'  u64 GSN | u32 CRC-32C of the record payload | payload — one
//	     redo record in leader log-append order
//
// Why shipping raw log bytes is sound: records carry absolute
// post-images and replay is idempotent, so the follower applies each 'R'
// frame as one atomic local transaction and equal states converge even
// across reconnects and re-bootstraps.  The follower skips records with
// GSN <= its floor (the newest snapshot cut it has applied) — that is
// what makes checkpoint retirement on the leader safe mid-stream.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Frame tags.
const (
	TagSnapBegin = 'S'
	TagSnapChunk = 'c'
	TagSnapEnd   = 'E'
	TagRecord    = 'R'
)

// maxFrameBody bounds one frame body; matches the WAL's record bound
// plus the record frame header.
const maxFrameBody = (1 << 30) + 16

// snapChunkBytes is the shipper's snapshot chunk size.
const snapChunkBytes = 256 << 10

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteFrame writes one frame.  The caller flushes.
func WriteFrame(w *bufio.Writer, tag byte, body []byte) error {
	var hdr [5]byte
	hdr[0] = tag
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// WriteRecordFrame writes one 'R' frame for a record.
func WriteRecordFrame(w *bufio.Writer, gsn uint64, payload []byte) error {
	var hdr [5 + 12]byte
	hdr[0] = TagRecord
	binary.LittleEndian.PutUint32(hdr[1:], uint32(12+len(payload)))
	binary.LittleEndian.PutUint64(hdr[5:], gsn)
	binary.LittleEndian.PutUint32(hdr[13:], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameGrowBytes bounds how far ReadFrame's buffer runs ahead of the bytes
// that have arrived: larger than a snapshot chunk, so only a record beyond
// it grows in more than one step.
const frameGrowBytes = 1 << 20

// ReadFrame reads one frame, reusing buf for the body when it fits.  The
// header's length is a claim, not a fact: a buffer that must grow grows as
// the body arrives, so a corrupt or hostile header costs at most
// frameGrowBytes beyond what the stream delivers, and a body cut short is
// io.ErrUnexpectedEOF.
func ReadFrame(r *bufio.Reader, buf []byte) (tag byte, body []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[1:])
	if size > maxFrameBody {
		return 0, nil, fmt.Errorf("repl: frame body of %d bytes exceeds limit", size)
	}
	n := int(size)
	body = buf[:0]
	for len(body) < n {
		have := len(body)
		step := min(n-have, max(cap(body)-have, frameGrowBytes))
		body = slices.Grow(body, step)[:have+step]
		if _, err := io.ReadFull(r, body[have:]); err != nil {
			if err == io.EOF { // bare from ReadFull: the stream ended between two steps
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	return hdr[0], body, nil
}

// DecodeRecord splits an 'R' frame body and verifies its CRC.
func DecodeRecord(body []byte) (gsn uint64, payload []byte, err error) {
	if len(body) < 12 {
		return 0, nil, fmt.Errorf("repl: record frame of %d bytes is too short", len(body))
	}
	gsn = binary.LittleEndian.Uint64(body)
	crc := binary.LittleEndian.Uint32(body[8:])
	payload = body[12:]
	if crc32.Checksum(payload, crcTable) != crc {
		return 0, nil, fmt.Errorf("repl: record gsn=%d failed CRC", gsn)
	}
	return gsn, payload, nil
}

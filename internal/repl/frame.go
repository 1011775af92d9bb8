// Package repl is log-shipping replication: a leader-side Shipper that
// lifts durable records out of the WAL with a wal.Tailer and streams
// them to a follower, and a follower-side Follower that replays the
// stream through the map's GSN-ordered apply path.
//
// The stream is the log.  The leader ships the bytes its log made durable
// and nothing else: record frames exactly as the segments hold them, the
// checkpoint file exactly as recovery would read it.  Both formats have
// one codec, internal/wal/frame.go, which the follower decodes with; this
// package adds only the envelope that tells the two apart on the wire.
//
// The stream rides a netproto connection: the follower sends a normal
// RESP command (REPL <Proto> <afterGSN> <floor>) and, after the +OK, the
// connection stops speaking RESP and carries raw binary frames forever —
// records can exceed netproto's MaxBulk, so they do not travel as bulk
// strings.  A frame is
//
//	u8 tag | u32 little-endian body length | body
//
// and the stream's grammar is
//
//	stream    = { bootstrap | 'R' }
//	bootstrap = 'S' { 'c' } 'E'
//
//	'S'  empty — a snapshot bootstrap begins (the follower's resume
//	     position was not retained); the follower resets its snapshot
//	     accumulator
//	'c'  the next chunk of the checkpoint file
//	'E'  empty — the file is complete: the follower validates it with
//	     wal.DecodeSnapshot (magic, length, CRC — the file carries its own
//	     cut), applies it, floors its GSN at the cut, and resets its
//	     stream position
//	'R'  a run of whole WAL record frames in leader log-append order,
//	     each carrying its own CRC; the follower walks it with
//	     wal.NextFrame
//
// Why shipping raw log bytes is sound: records carry absolute
// post-images and replay is idempotent, so the follower applies each
// record as one atomic local transaction and equal states converge even
// across reconnects and re-bootstraps.  The follower skips records with
// GSN <= its floor (the newest snapshot cut it has applied) — that is
// what makes checkpoint retirement on the leader safe mid-stream.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"mvgc/internal/wal"
)

// Proto names the stream's grammar in the REPL handshake.  A leader refuses
// a handshake that does not carry its own token — the bare two-argument
// form of the first protocol included — so a follower never applies a
// stream it would misread.
const Proto = "2"

// Frame tags.
const (
	TagSnapBegin = 'S'
	TagSnapChunk = 'c'
	TagSnapEnd   = 'E'
	TagRecord    = 'R'
)

// maxFrameBody bounds one frame body: the longest run a Tailer hands the
// shipper.
const maxFrameBody = wal.MaxRunBytes

// snapChunkBytes is the shipper's snapshot chunk size.
const snapChunkBytes = 256 << 10

// frameHeaderBytes is a frame's tag and body length.
const frameHeaderBytes = 5

// WriteFrame writes one frame.  The caller flushes.
func WriteFrame(w *bufio.Writer, tag byte, body []byte) error {
	var hdr [frameHeaderBytes]byte
	hdr[0] = tag
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(body)))
	// Byte by byte: a slice handed to Write may reach the connection and so
	// escapes, which would make the header a heap allocation per frame.
	for _, b := range hdr {
		if err := w.WriteByte(b); err != nil {
			return err
		}
	}
	_, err := w.Write(body)
	return err
}

// frameGrowBytes bounds how far ReadFrame's buffer runs ahead of the bytes
// that have arrived: larger than a snapshot chunk, so only a run holding a
// record beyond it grows in more than one step.
const frameGrowBytes = 1 << 20

// ReadFrame reads one frame, reusing buf for the body when it fits.  The
// header's length is a claim, not a fact: a buffer that must grow grows as
// the body arrives, so a corrupt or hostile header costs at most
// frameGrowBytes beyond what the stream delivers, and a body cut short is
// io.ErrUnexpectedEOF.
func ReadFrame(r *bufio.Reader, buf []byte) (tag byte, body []byte, err error) {
	var hdr [frameHeaderBytes]byte
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

package repl

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"

	"mvgc/internal/wal"
)

// Shipper streams a log's durable records to one follower connection.
// It is created by the server when a REPL command arrives, after the
// +OK reply has been flushed and the connection's RESP machinery has
// been torn down; Run then owns the connection until it fails or Abort
// is called.
type Shipper struct {
	log *wal.Log
	nc  net.Conn
	bw  *bufio.Writer

	mu     sync.Mutex
	tailer *wal.Tailer
	closed bool
}

// NewShipper wraps a raw connection for shipping from log.
func NewShipper(log *wal.Log, nc net.Conn) *Shipper {
	return &Shipper{log: log, nc: nc, bw: bufio.NewWriterSize(nc, 64<<10)}
}

// Abort tears the shipper down from another goroutine: the connection
// closes (failing any in-flight write) and a Next blocked waiting for
// records wakes and returns.
func (s *Shipper) Abort() {
	s.mu.Lock()
	s.closed = true
	t := s.tailer
	s.mu.Unlock()
	s.nc.Close() //nolint:errcheck // already failing
	if t != nil {
		t.Close() //nolint:errcheck
	}
}

// setTailer registers the live tailer so Abort can wake it; it reports
// false (closing the tailer) when the shipper was already aborted.
func (s *Shipper) setTailer(t *wal.Tailer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		t.Close() //nolint:errcheck
		return false
	}
	s.tailer = t
	return true
}

// Run ships records starting after the follower's resume position until
// the connection fails, the log closes, or Abort is called.  A position
// that is no longer retained (ErrTailTruncated, initially or mid-stream
// when a checkpoint retires records the follower still needs) falls back
// to a snapshot bootstrap: the latest checkpoint file streams as S/c/E
// frames, then tailing resumes from the earliest retained byte.
func (s *Shipper) Run(afterGSN, floor uint64) error {
	t, err := s.log.Tail(afterGSN, floor)
	for {
		if errors.Is(err, wal.ErrTailTruncated) {
			t, err = s.bootstrap()
		}
		if err != nil {
			return err
		}
		if !s.setTailer(t) {
			return errors.New("repl: shipper aborted")
		}
		for err == nil {
			err = s.shipRun(t)
		}
		t.Close() //nolint:errcheck
		if !errors.Is(err, wal.ErrTailTruncated) {
			return err
		}
	}
}

// bootstrap sends the latest checkpoint file as S/c/E frames and returns a
// tailer positioned at the earliest retained byte.  It loops if a
// concurrent checkpoint supersedes the snapshot mid-handoff.
func (s *Shipper) bootstrap() (*wal.Tailer, error) {
	for {
		f, size, cut, err := s.log.LatestSnapshot()
		if err != nil {
			return nil, err
		}
		if f == nil {
			return nil, errors.New("repl: follower position not retained and no snapshot exists")
		}
		// Acquire the tailer BEFORE shipping the snapshot: TailSnapshot
		// validates cut against the newest checkpoint, so the follower
		// never applies a snapshot we then cannot tail from.
		t, err := s.log.TailSnapshot(cut)
		if err == nil {
			err = s.sendSnapshot(f, size)
		}
		f.Close() //nolint:errcheck // read-only handle
		if err == nil {
			return t, nil
		}
		if t != nil {
			t.Close() //nolint:errcheck
		}
		// A newer checkpoint raced — before the tailer, or retiring the file
		// while it was being read: re-fetch, and the next 'S' makes the
		// follower start over.
		if !errors.Is(err, wal.ErrTailTruncated) && s.log.Stat().SnapshotCut == cut {
			return nil, err
		}
	}
}

// sendSnapshot streams the size bytes of the checkpoint file f, verbatim.
func (s *Shipper) sendSnapshot(f io.Reader, size int64) error {
	if err := WriteFrame(s.bw, TagSnapBegin, nil); err != nil {
		return err
	}
	buf := make([]byte, snapChunkBytes)
	for size > 0 {
		chunk := buf[:min(size, snapChunkBytes)]
		if _, err := io.ReadFull(f, chunk); err != nil {
			return err
		}
		if err := WriteFrame(s.bw, TagSnapChunk, chunk); err != nil {
			return err
		}
		size -= int64(len(chunk))
	}
	if err := WriteFrame(s.bw, TagSnapEnd, nil); err != nil {
		return err
	}
	return s.bw.Flush()
}

// shipRun writes the tailer's next run as the body of one 'R' frame: the
// log's bytes, verified once by the tailer and not touched again.  It takes
// what is ready without blocking and only flushes the wire buffer when the
// tailer has nothing — so a busy leader batches runs into large writes and
// an idle one delivers promptly.
func (s *Shipper) shipRun(t *wal.Tailer) error {
	run, err := t.Next(false)
	if err == nil && len(run) == 0 {
		if err = s.bw.Flush(); err == nil {
			run, err = t.Next(true)
		}
	}
	if err != nil {
		return err
	}
	return WriteFrame(s.bw, TagRecord, run)
}

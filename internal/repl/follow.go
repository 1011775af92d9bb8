package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mvgc/internal/netproto"
	"mvgc/internal/wal"
)

// Applier is the follower-side apply surface — what shard.Applier hands
// out for a logged map.
type Applier interface {
	// ReplayRecord applies one shipped record as an atomic transaction,
	// relogs it without waiting for the local log's fsync, and floors the
	// stamp source at its GSN.
	ReplayRecord(gsn uint64, payload []byte) error
	// ApplyReplSnapshot installs a shipped checkpoint snapshot as one version
	// and the local log's own checkpoint; the stamp source ends >= its cut.
	ApplyReplSnapshot(cut uint64, payload []byte) error
	// SyncWAL forces the local log durable; called whenever the follower
	// has applied everything it has received, and before the stream
	// position is persisted.
	SyncWAL() error
}

// Config configures a Follower.
type Config struct {
	// Addr is the leader's netproto address.
	Addr string
	// DB applies the stream.
	DB Applier
	// Dir is where the stream position file (repl.pos) lives — normally
	// the follower's own WAL directory, so position and log share fate.
	Dir string
	// FS accesses Dir (nil = the real filesystem).
	FS wal.FS
}

const (
	// retryInterval paces reconnection attempts.
	retryInterval = 500 * time.Millisecond
	// syncEvery persists the stream position after this many applied
	// records.  The position is only persisted after the local log syncs,
	// so it never claims records a follower crash could lose.
	syncEvery = 256
	// snapTrustBytes: how far ahead of the bytes received a snapshot's
	// declared length is believed (a smaller file is allocated once, whole).
	snapTrustBytes = 64 << 20
	// streamWindow sizes the connection's read buffer: a frame header and
	// the longest run a tailer hands out or snapshot chunk a shipper sends,
	// so every frame but a run of one larger record is read in place.
	streamWindow = frameHeaderBytes + max(wal.RunWindow, snapChunkBytes)
)

// Follower maintains a replication connection to the leader: it
// handshakes with its persisted position, applies the frame stream, and
// reconnects (or re-bootstraps) until Stop.
type Follower struct {
	cfg Config
	// pos is the GSN of the last stream frame processed — the positional
	// resume marker the handshake and repl.pos carry.  It names a frame, not
	// a high-water mark: two shards' commits can sit in the log in the
	// opposite order of their GSNs.
	pos   atomic.Uint64
	floor atomic.Uint64 // newest snapshot cut applied
	// applied is the highest GSN applied or covered so far — what
	// replication lag is measured against.  It is seeded from the persisted
	// position, so after a restart it is a lower bound until the first frame.
	applied atomic.Uint64

	mu   sync.Mutex
	conn net.Conn // live connection, for Stop to abort
	stop chan struct{}
	done chan struct{}
}

// Start loads the persisted position and begins following.  The returned
// Follower runs until Stop.
func Start(cfg Config) (*Follower, error) {
	if cfg.DB == nil || cfg.Addr == "" || cfg.Dir == "" {
		return nil, errors.New("repl: follower requires Addr, DB and Dir")
	}
	if cfg.FS == nil {
		cfg.FS = wal.OsFS{}
	}
	f := &Follower{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	pos, floor, err := loadPos(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, err
	}
	f.pos.Store(pos)
	f.floor.Store(floor)
	f.applied.Store(max(pos, floor))
	go f.run()
	return f, nil
}

// Pos reports the stream position: the GSN of the last frame processed
// and the newest snapshot cut applied.
func (f *Follower) Pos() (pos, floor uint64) { return f.pos.Load(), f.floor.Load() }

// Applied reports the highest GSN the follower has applied (or a snapshot
// covered): leader CommitGSN minus Applied is the replication lag in GSNs,
// 0 on a caught-up follower.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Stop severs the connection, stops reconnecting, and persists the
// final position (after a local log sync).  Idempotent.
func (f *Follower) Stop() {
	f.mu.Lock()
	select {
	case <-f.stop:
		f.mu.Unlock()
		<-f.done
		return
	default:
	}
	close(f.stop)
	if f.conn != nil {
		f.conn.Close() //nolint:errcheck
	}
	f.mu.Unlock()
	<-f.done
}

func (f *Follower) run() {
	defer close(f.done)
	// Best-effort final save; the position is a watermark, so losing
	// it only costs idempotent re-replay.
	defer f.save() //nolint:errcheck
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		f.follow() //nolint:errcheck // whatever broke the stream, the cure is to reconnect
		select {
		case <-f.stop:
			return
		case <-time.After(retryInterval):
		}
	}
}

// save syncs the local log and persists the stream position.
func (f *Follower) save() error {
	if err := f.cfg.DB.SyncWAL(); err != nil {
		return err
	}
	return savePos(f.cfg.FS, f.cfg.Dir, f.pos.Load(), f.floor.Load())
}

// follow runs one connection: handshake, then the frame loop.
func (f *Follower) follow() error {
	nc, err := net.Dial("tcp", f.cfg.Addr)
	if err != nil {
		return err
	}
	f.mu.Lock()
	select {
	case <-f.stop:
		f.mu.Unlock()
		nc.Close() //nolint:errcheck
		return errors.New("repl: follower stopped")
	default:
	}
	f.conn = nc
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		nc.Close() //nolint:errcheck
	}()

	br := bufio.NewReaderSize(nc, streamWindow)
	w := netproto.NewWriter(nc)
	w.BeginCommand(4)
	w.ArgString(netproto.CmdRepl)
	w.ArgString(Proto)
	w.ArgString(strconv.FormatUint(f.pos.Load(), 10))
	w.ArgString(strconv.FormatUint(f.floor.Load(), 10))
	if err := w.Flush(); err != nil {
		return err
	}
	status, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	if len(status) < 1 || status[0] != '+' {
		return fmt.Errorf("repl: leader refused stream: %s", strings.TrimSpace(status))
	}
	return f.frameLoop(br)
}

// frameLoop applies the stream until the connection breaks.
func (f *Follower) frameLoop(br *bufio.Reader) error {
	var (
		snap     []byte // accumulating checkpoint file
		snapLen  int64  // how long what snap holds so far says the file is
		inSnap   bool
		unsynced int // records applied since the last position save
	)
	for {
		tag, body, err := nextFrame(br)
		if err != nil {
			return err
		}
		switch tag {
		case TagSnapBegin:
			snap, snapLen, inSnap = nil, 0, true
		case TagSnapChunk:
			if !inSnap {
				return errors.New("repl: snapshot chunk outside a snapshot")
			}
			// The file's header declares its length (the shortest a file can
			// be until it is whole) and the buffer is sized from that once: a
			// claim, believed snapTrustBytes (or as much again) past the bytes.
			if need := int64(len(snap) + len(body)); need > int64(cap(snap)) {
				room := min(max(snapLen, need), need+max(int64(len(snap)), snapTrustBytes))
				snap = append(make([]byte, 0, room), snap...)
			}
			snap = append(snap, body...) // copied out: body is free again
			var ok bool
			if snapLen, ok = wal.SnapshotFileLen(snap); !ok || int64(len(snap)) > snapLen {
				return errors.New("repl: snapshot chunks do not match the file's declared length")
			}
		case TagSnapEnd:
			if !inSnap {
				return errors.New("repl: stray snapshot-end frame")
			}
			cut, payload, ok := wal.DecodeSnapshot(snap)
			if !ok || int64(len(snap)) != snapLen {
				return fmt.Errorf("repl: snapshot of %d bytes, %d declared, failed validation", len(snap), snapLen)
			}
			if err := f.cfg.DB.ApplyReplSnapshot(cut, payload); err != nil {
				return err
			}
			f.floor.Store(cut)
			f.pos.Store(0) // the stream restarts at the earliest retained byte
			f.applied.Store(max(f.applied.Load(), cut))
			inSnap, snap = false, nil
			if err := f.save(); err != nil {
				return err
			}
			unsynced = 0
		case TagRecord:
			for len(body) > 0 {
				gsn, payload, n, err := wal.NextFrame(body)
				if err != nil {
					return fmt.Errorf("repl: record run: %w", err)
				}
				body = body[n:]
				// Records at or below the floor are already covered by the
				// applied snapshot (retained segments can straddle the cut);
				// applying them would resurrect stale post-images.
				if gsn > f.floor.Load() {
					if err := f.cfg.DB.ReplayRecord(gsn, payload); err != nil {
						return err
					}
				}
				f.pos.Store(gsn)
				f.applied.Store(max(f.applied.Load(), gsn))
				if unsynced++; unsynced >= syncEvery {
					if err := f.save(); err != nil {
						return err
					}
					unsynced = 0
				} else if len(body) == 0 && br.Buffered() == 0 {
					// Everything received is applied: make it durable before
					// waiting for more.  A follower that keeps up syncs after
					// every run, as it always did after every record; one that
					// is behind applies what the read buffer holds — at most
					// its 256 KiB of stream — under one fsync instead of
					// stopping for one per run.
					if err := f.cfg.DB.SyncWAL(); err != nil {
						return err
					}
				}
			}
		default:
			return fmt.Errorf("repl: unknown frame tag %q", tag)
		}
	}
}

// nextFrame reads one frame in place — the body aliases br's buffer, valid
// until the next read from br — when the whole frame fits that buffer, and
// otherwise through ReadFrame into a buffer of its own, used once: no buffer
// that one large frame grew outlives it.  A stream that ends or fails is
// left to ReadFrame to report, from the bytes br still holds.
func nextFrame(br *bufio.Reader) (tag byte, body []byte, err error) {
	if hdr, err := br.Peek(frameHeaderBytes); err == nil {
		if n := frameHeaderBytes + int(binary.LittleEndian.Uint32(hdr[1:])); n <= br.Size() {
			if fr, err := br.Peek(n); err == nil {
				br.Discard(n) //nolint:errcheck // n bytes are buffered
				return fr[0], fr[frameHeaderBytes:], nil
			}
		}
	}
	return ReadFrame(br, nil)
}

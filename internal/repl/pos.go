package repl

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"mvgc/internal/wal"
)

// The stream position file lives next to the follower's WAL segments.
// It records the GSN of the last stream frame the follower processed
// (applied or floor-skipped) and the newest snapshot cut applied, and is
// only ever written AFTER the local log synced — so it never claims a
// record a follower crash could lose.  It may lag (the stream re-replays
// idempotently) and it may legitimately move backwards (a re-bootstrap
// resets pos to 0 with a higher floor).
//
// Format: 8-byte magic, u64 pos, u64 floor, u32 CRC-32C over pos+floor.
// Written via temp file + rename + directory sync, so it is either the
// old or the new position after any crash.  wal.Open ignores the file
// (it matches no segment or snapshot pattern).
const (
	posMagic   = "MVRPOS01"
	posName    = "repl.pos"
	posTmpName = "repl.pos.tmp"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// loadPos reads the persisted position; a missing or invalid file is a
// fresh start (0, 0) — the stream handshake then bootstraps as needed.
func loadPos(fs wal.FS, dir string) (pos, floor uint64, err error) {
	f, err := fs.Open(filepath.Join(dir, posName))
	if err != nil {
		return 0, 0, nil // missing: fresh follower
	}
	data, err := io.ReadAll(f)
	f.Close() //nolint:errcheck // read-only handle
	if err != nil {
		return 0, 0, fmt.Errorf("repl: read %s: %w", posName, err)
	}
	if len(data) != len(posMagic)+8+8+4 || string(data[:len(posMagic)]) != posMagic {
		return 0, 0, nil // torn write that lost the rename race: fresh start
	}
	body := data[len(posMagic) : len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return 0, 0, nil
	}
	return binary.LittleEndian.Uint64(body), binary.LittleEndian.Uint64(body[8:]), nil
}

// savePos atomically persists the position.
func savePos(fs wal.FS, dir string, pos, floor uint64) error {
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	buf := make([]byte, 0, len(posMagic)+8+8+4)
	buf = append(buf, posMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, pos)
	buf = binary.LittleEndian.AppendUint64(buf, floor)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[len(posMagic):], crcTable))
	tmp := filepath.Join(dir, posTmpName)
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, posName)); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

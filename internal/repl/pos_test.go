package repl

import (
	"path/filepath"
	"testing"

	"mvgc/internal/wal"
)

const posDir = "follower"

// posFile reads the position file's bytes back out of fs.
func posFile(t *testing.T, fs wal.FS) []byte {
	t.Helper()
	f, err := fs.Open(filepath.Join(posDir, posName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // read-only handle
	buf := make([]byte, 64)
	n, _ := f.Read(buf)
	return buf[:n]
}

// writePosFile replaces the position file's bytes.
func writePosFile(t *testing.T, fs wal.FS, data []byte) {
	t.Helper()
	f, err := fs.Create(filepath.Join(posDir, posName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPosRoundTrip: what savePos wrote, loadPos reads — including a
// position that moved backwards under a higher floor, as a re-bootstrap
// leaves it — and the save survives a crash.
func TestPosRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	if pos, floor, err := loadPos(fs, posDir); pos != 0 || floor != 0 || err != nil {
		t.Fatalf("no file: %d, %d, %v; want a fresh start", pos, floor, err)
	}
	for _, c := range [][2]uint64{{100, 7}, {1 << 40, 1 << 39}, {0, 1 << 41}} {
		if err := savePos(fs, posDir, c[0], c[1]); err != nil {
			t.Fatal(err)
		}
		fs.Crash(0)
		if pos, floor, err := loadPos(fs, posDir); pos != c[0] || floor != c[1] || err != nil {
			t.Fatalf("saved %d/%d, loaded %d/%d, %v", c[0], c[1], pos, floor, err)
		}
	}
}

// TestPosInvalidIsFreshStart: a position file that is torn, fails its CRC
// or carries another magic is no position at all — the follower starts from
// zero and lets the handshake bootstrap it — never an error and never a
// half-read position.
func TestPosInvalidIsFreshStart(t *testing.T) {
	fs := wal.NewMemFS()
	if err := savePos(fs, posDir, 1234, 56); err != nil {
		t.Fatal(err)
	}
	good := posFile(t, fs)
	flip := func(at int) []byte {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0x01
		return bad
	}
	for name, data := range map[string][]byte{
		"empty":        {},
		"torn":         good[:len(good)-3],
		"overlong":     append(append([]byte(nil), good...), 0),
		"wrong magic":  flip(0),
		"flipped pos":  flip(len(posMagic)),
		"flipped crc":  flip(len(good) - 1),
		"only a magic": []byte(posMagic),
	} {
		writePosFile(t, fs, data)
		if pos, floor, err := loadPos(fs, posDir); pos != 0 || floor != 0 || err != nil {
			t.Fatalf("%s: loaded %d/%d, %v; want a fresh start", name, pos, floor, err)
		}
	}
	writePosFile(t, fs, good)
	if pos, floor, err := loadPos(fs, posDir); pos != 1234 || floor != 56 || err != nil {
		t.Fatalf("intact file again: %d/%d, %v", pos, floor, err)
	}
}

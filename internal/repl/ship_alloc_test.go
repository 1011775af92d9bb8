//go:build !race

package repl

import (
	"net"
	"testing"

	"mvgc/internal/wal"
)

// sink is the follower's end of a connection that reads everything and
// keeps nothing.
type sink struct {
	net.Conn
	n int
}

func (s *sink) Write(p []byte) (int, error) { s.n += len(p); return len(p), nil }

// TestShipRunNoAlloc is the shipping path's allocation gate: a record made
// durable, lifted out of the segment by a warm Tailer — read into its
// reused buffer, CRC-checked in place — and written to the wire as one 'R'
// frame allocates nothing: no per-record copy, no second framing.  (The
// in-memory filesystem under the log grows its file by appending; averaged
// over the runs that is less than one allocation, which AllocsPerRun
// reports as none.)  Not in the race lane: race instrumentation allocates.
func TestShipRunNoAlloc(t *testing.T) {
	l, err := wal.Create(wal.Options{Dir: "leader", FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tl, err := l.Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	conn := &sink{}
	s := NewShipper(l, conn)
	payload := make([]byte, 1000)
	gsn := uint64(0)
	ship := func() {
		for i := 0; i < 8; i++ {
			gsn++
			if err := l.Append(gsn, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.shipRun(tl); err != nil {
			t.Fatal(err)
		}
	}
	ship()
	if allocs := testing.AllocsPerRun(200, ship); allocs != 0 {
		t.Errorf("shipping a warm run of 8 records allocates %.2f times", allocs)
	}
	if err := s.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := int(gsn/8) * (5 + 8*(16+len(payload))); conn.n != want {
		t.Errorf("the wire carried %d bytes, want %d: every run as one frame of the log's own bytes", conn.n, want)
	}
}

//go:build !race

package netserver

import (
	"runtime"
	"testing"

	"mvgc/internal/netclient"
)

// TestWireGetAllocs is the wire path's allocation gate: a warm pipelined
// GET over loopback costs the whole process — client and server together —
// at most one heap object (the client's Pending) and 128 bytes.  Race
// instrumentation allocates, so the file is built without it.
func TestWireGetAllocs(t *testing.T) {
	const (
		depth  = 256
		keys   = 1 << 12
		perRun = 16 * depth // GETs per measured run
	)
	s, addr := startServer(t, Config{Shards: 2, MaxConns: 2})
	defer s.Close()
	for k := int64(0); k < keys; k++ {
		if err := s.DB().Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	c, err := netclient.Dial(addr, 2*depth)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One run is perRun/depth windows: depth GETs pipelined, then a wait on
	// the newest — replies come in order, so that one wait (the only one
	// that can cost a channel) completes the whole window.
	var window [depth]*netclient.Pending
	next := int64(0)
	run := func() {
		for w := 0; w < perRun/depth; w++ {
			for i := range window {
				window[i] = c.GetAsync((next + int64(i)) % keys)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := window[depth-1].Wait(); err != nil {
				t.Fatal(err)
			}
			for i, p := range window {
				if v, ok, err := p.Value(); err != nil || !ok || v != (next+int64(i))%keys {
					t.Fatalf("GET %d: %d %v %v", (next+int64(i))%keys, v, ok, err)
				}
			}
			next += depth
		}
	}
	run() // warm: buffers and the server's ring reach their steady state

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(20, run) / perRun
	runtime.ReadMemStats(&m1)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / (21 * perRun) // AllocsPerRun warms up with one extra run
	t.Logf("%.3f allocs/op, %.1f B/op", allocs, bytes)
	// One Pending per GET, one wait channel per window, and a little for
	// what the runtime itself allocates meanwhile.
	if allocs > 1+1.0/depth+0.005 {
		t.Errorf("%.3f allocs per pipelined GET, want ≤ 1", allocs)
	}
	if bytes > 128 {
		t.Errorf("%.1f B per pipelined GET, want ≤ 128", bytes)
	}
}

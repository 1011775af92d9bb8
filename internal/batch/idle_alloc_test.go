//go:build !race

package batch

import (
	"runtime"
	"testing"
	"time"
)

// TestIdleCombinerAllocs: a started combiner with nothing to do polls once
// per MaxLatency, forever, on every shard of every batched map — so a poll
// must not allocate.  Race instrumentation allocates, so the file is built
// without it.
func TestIdleCombinerAllocs(t *testing.T) {
	const interval = 200 * time.Microsecond
	m := newIntMap(t, 2)
	defer m.Close()
	b := New(m, Config{Clients: 1, MaxLatency: interval}, nil)
	b.Start()
	defer b.Stop()
	time.Sleep(10 * interval) // the combiner and this goroutine's sleep timer are warm

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	time.Sleep(50 * interval)
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Fatalf("idle combiner allocated %d objects over 50 polls, want 0", n)
	}
}

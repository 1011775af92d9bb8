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

// TestCombinerCommitAllocs: a warm commit — gather, apply, hand-over to the
// completer, publication, the producer's park and wake — allocates nothing:
// the batch records that travel between the two goroutines are a fixed ring
// reused in place, callbacks included.
func TestCombinerCommitAllocs(t *testing.T) {
	const keys, rounds = 64, 300
	m := newIntMap(t, 2)
	defer m.Close()
	b := New(m, Config{Clients: 1, BufCap: 8, MaxLatency: 50 * time.Microsecond}, nil)
	b.Start()
	defer b.Stop()
	acked := make(chan struct{}, 1)
	ack := func(error) { acked <- struct{}{} }
	round := func(i int) {
		// A burst that overflows the ring (Submit parks for room), one
		// request with a callback, one wait for the commit.
		for j := 0; j < 12; j++ {
			b.Submit(0, Request[int64, int64]{Op: OpInsert, Key: int64((i + j) % keys), Val: int64(i)})
		}
		b.SubmitAsync(0, Request[int64, int64]{Op: OpInsert, Key: int64(i % keys), Val: int64(i)}, ack)
		b.Flush(0)
		<-acked
	}
	for i := 0; i < rounds; i++ { // warm: tree, arenas, batch records, sudogs
		round(i)
	}
	before := b.Batches()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		round(i)
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Fatalf("%d warm commits allocated %d objects, want 0", b.Batches()-before, n)
	}
}

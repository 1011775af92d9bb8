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
//
// The test runs on one P.  Each P keeps its own timer heap, a slice the
// runtime grows the first time a timer — the poll's, or this goroutine's
// sleep — lands on that P.  With several Ps the warm-up may never touch
// the P the measured window then uses, and that one growth (16 B) used to
// fail the gate now and then; it is the runtime's, once per P, not the
// poll's.  On one P the warm-up warms the P the window runs on.
func TestIdleCombinerAllocs(t *testing.T) {
	const interval = 200 * time.Microsecond
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
//
// It measures twice.  On one P the producer, the combiner and the completer
// take turns, and one window after the warm-up is exact.  On two or more Ps
// they run at once, so parks and wake-ups cross Ps.  There the runtime has
// one-time costs a warm-up cannot exhaust — a thread started for a wake-up
// that finds an idle P but no idle thread (runtime.newm, five objects), a
// P's timer heap grown on its first timer — and a gather larger than any
// before grows the combiner's reused buffers once.  So that run takes up to
// three windows and passes on the first that allocates nothing; a cost per
// commit or per wake-up recurs in every window and fails all three.
func TestCombinerCommitAllocs(t *testing.T) {
	const keys, rounds = 64, 300
	for _, procs := range []int{1, max(2, runtime.GOMAXPROCS(0))} {
		windows := 1
		if procs > 1 {
			windows = 3
		}
		if n := combinerCommitAllocs(t, procs, keys, rounds, windows); n != nil {
			t.Errorf("GOMAXPROCS %d: %d warm rounds of commits allocated %v objects in each window, want 0", procs, rounds, n)
		}
	}
}

// combinerCommitAllocs warms a combiner on procs Ps, then measures up to
// windows windows of rounds commits each; it returns each window's count
// if none allocated nothing, else nil.
func combinerCommitAllocs(t *testing.T, procs, keys, rounds, windows int) (counts []uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
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
	for range windows {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			round(i)
		}
		runtime.ReadMemStats(&m1)
		n := m1.Mallocs - m0.Mallocs
		if n == 0 {
			return nil
		}
		counts = append(counts, n)
	}
	return counts
}

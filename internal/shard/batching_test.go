package shard

import (
	"runtime"
	"testing"
	"time"

	"mvgc/internal/batch"
)

// TestBatchingSingleProc: a combiner leases a pid per batch, not for its
// lifetime, so a batched map with Procs: 1 still serves point reads and
// writes while its combiners commit — everyone takes turns on the one pid.
func TestBatchingSingleProc(t *testing.T) {
	const n = 300
	m := newSharded(t, "pswf", 2, 1, nil)
	m.StartBatching(batch.Config{Clients: 1, MaxLatency: 100 * time.Microsecond}, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < n; i++ {
			m.SubmitWait(0, batch.Request[int64, int64]{Op: batch.OpInsert, Key: i, Val: i})
			if err := m.Insert(n+i, i); err != nil {
				t.Error(err)
			}
			if v, ok := m.Get(i); !ok || v != i {
				t.Errorf("Get(%d) = %d,%v after its batch committed", i, v, ok)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("point ops starved beside a combiner on a Procs: 1 map")
	}
	if got := m.Len(); got != 2*n {
		t.Fatalf("Len = %d, want %d", got, 2*n)
	}
	m.Close()
	if live := m.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestShardCombinerCommitAllocs: a warm combiner commit on a sharded map —
// gather, the commit of its deletes and inserts as one transaction on its
// shard through the combiner's own Txn, the hand-over to the completer,
// publication, the producer's park and wake — allocates nothing.  Each round
// deletes two keys, so a batch's deletes go down as one multi-delete on the
// reused replay scratch.  It measures as TestCombinerCommitAllocs
// (internal/batch) does: one window on one P, and on two or more Ps up to
// three windows, passing on the first that allocates nothing, because the
// runtime's one-time costs of a wake-up that crosses Ps outlast a warm-up
// while a cost per commit recurs in every window.
func TestShardCombinerCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	const keys, rounds = 64, 300
	for _, procs := range []int{1, max(2, runtime.GOMAXPROCS(0))} {
		windows := 1
		if procs > 1 {
			windows = 3
		}
		if n := shardCombinerAllocs(t, procs, keys, rounds, windows); n != nil {
			t.Errorf("GOMAXPROCS %d: %d warm rounds of commits allocated %v objects in each window, want 0", procs, rounds, n)
		}
	}
}

// shardCombinerAllocs warms a two-shard batched map on procs Ps, then
// measures up to windows windows of rounds rounds each; it returns each
// window's count if none allocated nothing, else nil.
func shardCombinerAllocs(t *testing.T, procs, keys, rounds, windows int) (counts []uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	m := newSharded(t, "pswf", 2, 2, nil)
	defer m.Close()
	m.StartBatching(batch.Config{Clients: 1, BufCap: 8, MaxLatency: 50 * time.Microsecond}, nil)
	acked := make(chan struct{}, 1)
	ack := func(error) { acked <- struct{}{} }
	round := func(i int) {
		for j := 0; j < 12; j++ {
			m.Submit(0, batch.Request[int64, int64]{Op: batch.OpInsert, Key: int64((i + j) % keys), Val: int64(i)})
		}
		for j := 0; j < 2; j++ {
			m.Submit(0, batch.Request[int64, int64]{Op: batch.OpDelete, Key: int64((i + 2*j + 5) % keys)})
		}
		m.SubmitAsync(0, batch.Request[int64, int64]{Op: batch.OpInsert, Key: int64(i % keys), Val: int64(i)}, ack)
		m.Flush(0)
		<-acked
	}
	for i := 0; i < rounds; i++ { // warm: trees, arenas, Txn scratch, batch records
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

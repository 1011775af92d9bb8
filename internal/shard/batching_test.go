package shard

import (
	"sync/atomic"
	"testing"
	"time"

	"mvgc/internal/batch"
	"mvgc/internal/core"
	"mvgc/internal/wal"
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

// TestBatchRetryLogsCommittedAttempt: a combiner batch whose first attempt
// loses its Set to another writer re-runs apply and encode, and the record
// it logs carries the post-images of the attempt that committed.  With a
// log attached every shard.Map writer serializes on the shard's walMu, so
// the only writer that can race a batch's transaction is one on the raw
// core.Map; the comb lands one deterministically, from inside attempt one.
func TestBatchRetryLogsCommittedAttempt(t *testing.T) {
	fs := wal.NewMemFS()
	m, _ := newWALMap(t, 1, fs)
	if err := m.Insert(7, 1); err != nil {
		t.Fatal(err)
	}
	var raced atomic.Bool
	m.StartBatching(batch.Config{Clients: 1}, func(old, new uint64) uint64 {
		if raced.CompareAndSwap(false, true) {
			m.Shard(0).With(func(h *core.Handle[uint64, uint64, struct{}]) {
				h.Update(func(tx *core.Txn[uint64, uint64, struct{}]) { tx.Insert(7, 100) })
			})
		}
		return old + new
	})
	m.SubmitWait(0, batch.Request[uint64, uint64]{Op: batch.OpInsert, Key: 7, Val: 1})
	if m.Aborts() == 0 {
		t.Fatal("the batch's first attempt was meant to lose its Set")
	}
	if v, _ := m.Get(7); v != 101 {
		t.Fatalf("live value %d, want 101 (the retried attempt's combine)", v)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _ := reopenWALMap(t, 1, fs)
	defer m2.Close()
	if v, _ := m2.Get(7); v != 101 {
		t.Fatalf("recovered value %d, want 101: the log kept the aborted attempt's post-image", v)
	}
}

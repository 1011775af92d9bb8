package shard

import (
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

package shard

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"mvgc/internal/batch"
	"mvgc/internal/ftree"
	"mvgc/internal/wal"
)

// TestEveryWriteWaitsForSlot: the writer slot is the shard's one writer
// lock.  With shard i's slot held by hand, no write entry point may commit
// on shard i until it is released, and each must land after it.
func TestEveryWriteWaitsForSlot(t *testing.T) {
	type txn = Txn[uint64, uint64, struct{}]
	const k = uint64(5) // shard 1 of 2
	add := func(old, new uint64) uint64 { return old + new }
	m, _ := newWALMap(t, 2, wal.NewMemFS())
	defer m.Close()
	m.StartBatching(batch.Config{Clients: 1}, nil)
	record := func(v uint64) []byte {
		e := &walEnc[uint64, uint64]{cfg: &m.wal.cfg}
		e.appendInsert(k, v)
		return e.buf
	}
	rows := []struct {
		name    string
		write   func() error
		want    uint64 // k's value after the write, from 1
		present bool
	}{
		{"Insert", func() error { return m.Insert(k, 7) }, 7, true},
		{"InsertWith", func() error { return m.InsertWith(k, 6, add) }, 7, true},
		{"Delete", func() error { return m.Delete(k) }, 0, false},
		{"InsertBatch", func() error {
			return m.InsertBatch([]ftree.Entry[uint64, uint64]{{Key: k, Val: 7}}, nil)
		}, 7, true},
		{"DeleteBatch", func() error { return m.DeleteBatch([]uint64{k}) }, 0, false},
		{"Update", func() error { return m.Update(func(tx *txn) { tx.Insert(k, 7) }) }, 7, true},
		{"UpdateAtomic", func() error { return m.UpdateAtomic(func(tx *txn) { tx.Insert(k, 7) }) }, 7, true},
		{"UpdateAtomicKeys", func() error {
			return m.UpdateAtomicKeys([]uint64{k}, func(tx *txn) {
				v, _ := tx.Get(k)
				tx.Insert(k, v+6)
			})
		}, 7, true},
		{"SubmitWait", func() error {
			m.SubmitWait(0, batch.Request[uint64, uint64]{Op: batch.OpInsert, Key: k, Val: 7})
			return nil
		}, 7, true},
		{"ReplayRecord", func() error { return m.ReplayRecord(m.CommitGSN()+1, record(7)) }, 7, true},
	}
	s := m.shards[m.ShardFor(k)]
	for _, r := range rows {
		if err := m.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
		s.LockWriterSlot()
		done := make(chan error, 1)
		go func() { done <- r.write() }()
		select {
		case err := <-done:
			s.UnlockWriterSlot()
			t.Fatalf("%s committed through a held writer slot (err %v)", r.name, err)
		case <-time.After(5 * time.Millisecond):
		}
		v, ok := m.Get(k)
		s.UnlockWriterSlot()
		if !ok || v != 1 {
			t.Fatalf("%s: value changed to %d,%v while the slot was held", r.name, v, ok)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if v, ok := m.Get(k); ok != r.present || v != r.want {
			t.Fatalf("%s: after the slot's release k = %d,%v, want %d,%v", r.name, v, ok, r.want, r.present)
		}
	}
}

// TestLockOrderStress runs every write entry point beside every reader that
// can take a lock — GetBatch, a ViewConsistent that fences on every call,
// checkpoints — at once, on the tightest configuration: one pid per shard,
// three shards, a log.  The lock order (writer slots ascending, then pids;
// no pid holder waits for a slot) is what keeps it from deadlocking, so the
// test fails on a deadline rather than hanging.  No Set may fail, and
// nothing may leak.
func TestLockOrderStress(t *testing.T) {
	type txn = Txn[uint64, uint64, struct{}]
	const shards = 3
	iters := 1000
	if testing.Short() {
		iters = 200
	}
	log, _, err := wal.Open(wal.Options{Dir: "wal", FS: wal.NewMemFS(), SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(
		Config[uint64]{Shards: shards, Procs: 1, Hash: func(k uint64) uint64 { return k }},
		func() *ftree.Ops[uint64, uint64, struct{}] {
			return ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 0)
		},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := u64Codec()
	if err := m.AttachWAL(WALConfig[uint64, uint64]{Log: log, EncKey: enc, DecKey: dec, EncVal: enc, DecVal: dec}, nil); err != nil {
		t.Fatal(err)
	}
	m.maxCollects = -1 // every ViewConsistent takes the fence
	m.StartBatching(batch.Config{Clients: 2, MaxLatency: 100 * time.Microsecond}, nil)
	add := func(old, new uint64) uint64 { return old + new }

	var wg sync.WaitGroup
	worker := func(name string, f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := f(i); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
			}
		}()
	}
	key := func(i, j int) uint64 { return uint64(i*7+j) % 64 }
	worker("point", func(i int) error {
		if err := m.Insert(key(i, 0), 1); err != nil {
			return err
		}
		if err := m.InsertWith(key(i, 1), 1, add); err != nil {
			return err
		}
		return m.Delete(key(i, 2))
	})
	worker("batch", func(i int) error {
		if err := m.InsertBatch([]ftree.Entry[uint64, uint64]{{Key: key(i, 3), Val: 2}, {Key: key(i, 4), Val: 2}, {Key: key(i, 5), Val: 2}}, nil); err != nil {
			return err
		}
		return m.DeleteBatch([]uint64{key(i, 6), key(i, 7)})
	})
	worker("update", func(i int) error {
		return m.Update(func(tx *txn) { tx.Insert(key(i, 8), 3); tx.Insert(key(i, 9), 3) })
	})
	worker("atomic", func(i int) error {
		return m.UpdateAtomic(func(tx *txn) { tx.InsertWith(key(i, 10), 1, add); tx.Delete(key(i, 11)) })
	})
	worker("atomic-keys", func(i int) error {
		a, b := key(i, 12), key(i, 13)
		return m.UpdateAtomicKeys([]uint64{a}, func(tx *txn) {
			av, _ := tx.Get(a)
			bv, _ := tx.Get(b) // usually on another shard: the fence grows
			tx.Insert(a, av+bv)
		})
	})
	worker("replay", func(i int) error {
		e := &walEnc[uint64, uint64]{cfg: &m.wal.cfg}
		e.appendInsert(key(i, 14), 4)
		e.appendDelete(key(i, 15))
		return m.ReplayRecord(0, e.buf)
	})
	var async sync.WaitGroup
	worker("submit-async", func(i int) error {
		async.Add(1)
		m.SubmitAsync(0, batch.Request[uint64, uint64]{Op: batch.OpInsert, Key: key(i, 16), Val: 5}, func(err error) {
			if err != nil {
				t.Error(err)
			}
			async.Done()
		})
		return nil
	})
	worker("submit-wait", func(i int) error {
		m.SubmitWait(1, batch.Request[uint64, uint64]{Op: batch.OpDelete, Key: key(i, 17)})
		return nil
	})
	worker("get-batch", func(i int) error {
		keys := []uint64{key(i, 0), key(i, 1), key(i, 2), key(i, 3)}
		m.GetBatch(keys, make([]uint64, len(keys)), make([]bool, len(keys)))
		return nil
	})
	worker("view-consistent", func(int) error {
		m.ViewConsistent(func(s Snap[uint64, uint64, struct{}]) { s.Len() })
		return nil
	})
	worker("checkpoint", func(i int) error {
		if i%10 != 0 {
			return nil
		}
		return m.Checkpoint()
	})

	done := make(chan struct{})
	go func() {
		wg.Wait()
		async.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		buf := make([]byte, 1<<20)
		t.Fatalf("no progress in 2 minutes: deadlock?\n%s", buf[:runtime.Stack(buf, true)])
	}
	_, fenced := m.ConsistentStats()
	if fenced < int64(iters) {
		t.Errorf("%d fenced views, want %d: the fence was not exercised", fenced, iters)
	}
	t.Logf("%d commits, %d batches, %d fenced views, %d fence restarts", m.Commits(), m.Batches(), fenced, m.OCCAborts())
	if a := m.Aborts(); a != 0 {
		t.Errorf("%d Set failures: some commit ran beside its shard's writer", a)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if live := m.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
		{"UpdateAtomic", func() error { return m.UpdateAtomic(func(tx *txn) { tx.Insert(k, 7) }) }, 7, true},
		{"UpdateAtomicKeys", func() error {
			return m.UpdateAtomicKeys([]uint64{k}, func(tx *txn) {
				v, _ := tx.Get(k)
				tx.Insert(k, v+6)
			})
		}, 7, true},
		{"CommitEach", func() error {
			return m.groupCommit(m.CommitEach(func(tx *txn) { tx.Delete(k); tx.Insert(k, 7) }))
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
	wide := make([]ftree.Entry[uint64, uint64], shards*parallelIngestFloor) // every leg parallel
	worker("batch", func(i int) error {
		if err := m.InsertBatch([]ftree.Entry[uint64, uint64]{{Key: key(i, 3), Val: 2}, {Key: key(i, 4), Val: 2}, {Key: key(i, 5), Val: 2}}, nil); err != nil {
			return err
		}
		for j := range wide {
			wide[j] = ftree.Entry[uint64, uint64]{Key: 64 + uint64(j), Val: uint64(i)}
		}
		if err := m.InsertBatch(wide, nil); err != nil {
			return err
		}
		return m.DeleteBatch([]uint64{key(i, 6), key(i, 7)})
	})
	worker("atomic-inserts", func(i int) error {
		return m.UpdateAtomic(func(tx *txn) { tx.Insert(key(i, 8), 3); tx.Insert(key(i, 9), 3) })
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
	worker("commit-each", func(i int) error {
		return m.groupCommit(m.CommitEach(func(tx *txn) {
			tx.Insert(key(i, 16), 5)
			tx.Delete(key(i, 17))
			tx.Insert(key(i, 18), 5)
		}))
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
	t.Logf("%d commits, %d fenced views, %d fence restarts", m.Commits(), fenced, m.OCCAborts())
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

// TestParallelLegsBesideReaders: an atomic batch whose legs run in
// parallel (two legs of parallelIngestFloor entries or more) beside
// readers that pin every shard, on one pid per shard.  A reader holds
// shard 0's pid while it waits for shard 1's, so a parallel leg must not
// hold its pid while it waits for another leg.  Fails on a deadline rather
// than hanging.
func TestParallelLegsBesideReaders(t *testing.T) {
	const shards = 2
	iters := 300
	if testing.Short() {
		iters = 60
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
	es := make([]ftree.Entry[uint64, uint64], 2*shards*parallelIngestFloor)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < iters; i++ {
			for j := range es {
				es[j] = ftree.Entry[uint64, uint64]{Key: uint64(j), Val: uint64(i)}
			}
			if err := m.InsertBatch(es, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, consistent := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				read := func(s Snap[uint64, uint64, struct{}]) { s.Len() }
				if consistent {
					m.ViewConsistent(read)
				} else {
					m.View(read)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		buf := make([]byte, 1<<20)
		t.Fatalf("no progress in 2 minutes: deadlock?\n%s", buf[:runtime.Stack(buf, true)])
	}
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

// TestCollectAfterSlot: a commit frees its shard's writer slot before it
// collects, and still collects before the write returns.  A ReleaseVal hook
// runs inside the collector — it fires for every value of a freed node — and
// checks that its shard's writer slot is free there, for a point write and
// a two-shard atomic write on sequential legs.  (Parallel legs collect
// under the slots; commitLegs.)  Once each write has returned with no
// reader pinned, every shard retains one version and the allocator holds
// exactly the nodes those versions reach — after the parallel-leg load too.
func TestCollectAfterSlot(t *testing.T) {
	type txn = Txn[uint64, uint64, struct{}]
	const shards = 2
	var m *Map[uint64, uint64, struct{}]
	var collected, held atomic.Int64
	made := 0
	m, err := New(
		Config[uint64]{Shards: shards, Procs: 2, Hash: func(k uint64) uint64 { return k }},
		func() *ftree.Ops[uint64, uint64, struct{}] {
			i := made // the shard these ops serve
			made++
			o := ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 0)
			o.RetainVal = func(v uint64) uint64 { return v }
			o.ReleaseVal = func(uint64) {
				collected.Add(1)
				if s := m.shards[i]; s.slot.TryLock() {
					s.slot.Unlock()
				} else {
					held.Add(1)
				}
			}
			return o
		},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(n int, v uint64) []ftree.Entry[uint64, uint64] {
		es := make([]ftree.Entry[uint64, uint64], n)
		for i := range es {
			es[i] = ftree.Entry[uint64, uint64]{Key: uint64(i), Val: v}
		}
		return es
	}
	precise := func(name string) {
		t.Helper()
		for i, s := range m.shards {
			if u := s.Uncollected(); u != 1 {
				t.Fatalf("%s: shard %d retains %d versions after the write returned, want 1", name, i, u)
			}
		}
		var reachable int64
		m.View(func(sn Snap[uint64, uint64, struct{}]) {
			for i, s := range m.shards {
				reachable += s.Ops().ReachableNodes(sn.Shard(i).Root())
			}
		})
		if live := m.Live(); live != reachable {
			t.Fatalf("%s: %d nodes live, %d reachable from the current versions", name, live, reachable)
		}
	}
	if err := m.InsertBatch(batch(4*parallelIngestFloor, 1), nil); err != nil {
		t.Fatal(err)
	}
	precise("load on parallel legs")
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"Insert", func() error { return m.Insert(3, 2) }},
		{"Delete", func() error { return m.Delete(3) }},
		{"UpdateAtomic/sequential legs", func() error {
			return m.UpdateAtomic(func(tx *txn) { tx.Insert(4, 3); tx.Insert(5, 3) })
		}},
	} {
		collected.Store(0)
		held.Store(0)
		if err := w.write(); err != nil {
			t.Fatal(err)
		}
		if collected.Load() == 0 {
			t.Fatalf("%s: nothing was collected before the write returned", w.name)
		}
		if n := held.Load(); n != 0 {
			t.Fatalf("%s: %d of %d values were collected under their shard's held writer slot", w.name, n, collected.Load())
		}
		precise(w.name)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if live := m.Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestSlotContentionStress: two goroutines contend for one shard's writer
// slot with point writes, UpdateAtomicKeys transfers and ViewConsistent
// scans interleaved, with one pid and with three.  A waiter spins on the
// slot before it parks, and a committer collects after releasing it; under
// both, no Set may fail, every consistent scan and the final state must
// conserve the transfer sum, and nothing may leak.  Fails on a deadline
// rather than hanging.
func TestSlotContentionStress(t *testing.T) {
	type txn = Txn[uint64, uint64, struct{}]
	const accounts, total = 8, 8 * 100
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	for _, procs := range []int{1, 3} {
		initial := make([]ftree.Entry[uint64, uint64], accounts)
		for i := range initial {
			initial[i] = ftree.Entry[uint64, uint64]{Key: uint64(i), Val: total / accounts}
		}
		m, err := New(
			Config[uint64]{Shards: 1, Procs: procs, Hash: func(k uint64) uint64 { return k }},
			func() *ftree.Ops[uint64, uint64, struct{}] {
				return ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 0)
			},
			initial,
		)
		if err != nil {
			t.Fatal(err)
		}
		sum := func(s Snap[uint64, uint64, struct{}]) (n uint64) {
			s.ScanFunc(0, accounts, func(_, v uint64) bool { n += v; return true })
			return n
		}
		var wg sync.WaitGroup
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					var err error
					switch (i + g) % 3 {
					case 0:
						err = m.Insert(accounts+uint64(i%64), uint64(i))
					case 1:
						from, to := uint64(i*3+g)%accounts, uint64(i*5+g+1)%accounts
						err = m.UpdateAtomicKeys([]uint64{from, to}, func(tx *txn) {
							fv, _ := tx.Get(from)
							tv, _ := tx.Get(to)
							if from != to && fv > 0 {
								tx.Insert(from, fv-1)
								tx.Insert(to, tv+1)
							}
						})
					case 2:
						m.ViewConsistent(func(s Snap[uint64, uint64, struct{}]) {
							if n := sum(s); n != total {
								t.Errorf("procs %d: a consistent scan saw the transfer sum at %d, want %d", procs, n, total)
							}
						})
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			buf := make([]byte, 1<<20)
			t.Fatalf("procs %d: no progress in 2 minutes: deadlock?\n%s", procs, buf[:runtime.Stack(buf, true)])
		}
		m.View(func(s Snap[uint64, uint64, struct{}]) {
			if n := sum(s); n != total {
				t.Errorf("procs %d: transfer sum %d at the end, want %d", procs, n, total)
			}
		})
		if a := m.Aborts(); a != 0 {
			t.Errorf("procs %d: %d Set failures: some commit ran beside its shard's writer", procs, a)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if live := m.Live(); live != 0 {
			t.Fatalf("procs %d: leaked %d nodes", procs, live)
		}
	}
}

package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type intHandle = Handle[int64, int64, int64]

// freePids walks the lease's free stack; call only at quiescence.
func freePids(m *Map[int64, int64, int64]) []int {
	var out []int
	for top := uint32(m.free.head.Load()); top != 0; top = uint32(m.procs[top-1].next.Load()) {
		out = append(out, int(top-1))
	}
	return out
}

// checkAllFree asserts every pid is on the free stack exactly once: nothing
// leaked, nothing released twice.
func checkAllFree(t *testing.T, m *Map[int64, int64, int64]) {
	t.Helper()
	free := freePids(m)
	slices.Sort(free)
	for pid := 0; pid < m.Procs(); pid++ {
		if pid >= len(free) || free[pid] != pid {
			t.Fatalf("free stack holds %v, want each of the %d pids once", free, m.Procs())
		}
	}
}

// TestLeaseExclusive is the Version Maintenance contract: many goroutines
// churn scoped and held leases on a small map and a pid is never held by
// two of them at once.  The counter they bump is guarded by nothing but
// the transactions, so a lost update would show too.  Run under -race to
// catch an unsynchronized hand-off of a process record.
func TestLeaseExclusive(t *testing.T) {
	const procs, workers, iters = 4, 64, 500
	m := newIntMap(t, "pswf", procs, nil)
	inUse := make([]atomic.Bool, procs)
	add := func(old, new int64) int64 { return old + new }
	txn := func(h *intHandle) {
		if !inUse[h.Pid()].CompareAndSwap(false, true) {
			t.Errorf("pid %d leased twice concurrently", h.Pid())
		}
		h.Update(func(tx *Txn[int64, int64, int64]) { tx.InsertWith(0, 1, add) })
		if !inUse[h.Pid()].CompareAndSwap(true, false) {
			t.Errorf("pid %d released while not marked leased", h.Pid())
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (w+i)%2 == 0 {
					m.With(txn)
				} else {
					h := m.Handle()
					txn(h)
					h.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	m.With(func(h *intHandle) {
		h.Read(func(s Snapshot[int64, int64, int64]) {
			if total, _ := s.Get(0); total != workers*iters {
				t.Errorf("counter = %d, want %d (lost update through lease churn)", total, workers*iters)
			}
		})
	})
	checkAllFree(t, m)
	m.Close()
	if live := m.Ops().Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestLeaseWakeup: with all P pids held a With caller parks — registered as
// a waiter and asleep, not polling — and the next Close wakes it.
func TestLeaseWakeup(t *testing.T) {
	const procs = 3
	m := newIntMap(t, "pswf", procs, nil)
	held := make([]*intHandle, procs)
	for i := range held {
		held[i] = m.Handle()
	}
	ran := make(chan int, 1)
	returned := make(chan struct{})
	go func() {
		m.With(func(h *intHandle) { ran <- h.Pid() })
		close(returned)
	}()
	for m.free.waiters.Load() == 0 {
		runtime.Gosched()
	}
	// The waiter holds the lease mutex from before it registers until it
	// is parked in Wait, so once we can take it the waiter is asleep.
	m.free.mu.Lock()
	m.free.mu.Unlock()
	select {
	case pid := <-ran:
		t.Fatalf("With ran on pid %d with every pid leased", pid)
	default:
	}
	held[1].Close()
	select {
	case pid := <-ran:
		if pid != held[1].Pid() {
			t.Fatalf("woken caller got pid %d, want the released pid %d", pid, held[1].Pid())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not wake the parked With caller")
	}
	<-returned
	held[0].Close()
	held[2].Close()
	checkAllFree(t, m)
	m.Close()
}

// TestLeaseHandOff passes the only pid of a P=1 map between two goroutines
// 100 000 times.  The holder yields inside its callback, so the other
// goroutine finds the lease empty and sleeps: nearly every hand-off goes
// through the waiter path, and one lost wake-up would hang the test.  The
// plain counter is guarded by the lease alone.
func TestLeaseHandOff(t *testing.T) {
	const each = 50000
	m := newIntMap(t, "pswf", 1, nil)
	var n int
	done := make(chan struct{}, 2)
	for g := 0; g < 2; g++ {
		go func() {
			for i := 0; i < each; i++ {
				m.With(func(*intHandle) {
					n++
					runtime.Gosched()
				})
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 2; g++ {
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatal("hand-off hung: a wake-up was lost")
		}
	}
	if n != 2*each {
		t.Fatalf("%d hand-offs counted, want %d", n, 2*each)
	}
	checkAllFree(t, m)
	m.Close()
}

// TestLeaseWithAllocs: a warm scoped lease allocates nothing.
func TestLeaseWithAllocs(t *testing.T) {
	m := newIntMap(t, "pswf", 4, nil)
	defer m.Close()
	read := func(s Snapshot[int64, int64, int64]) { s.Get(1) }
	body := func(h *intHandle) { h.Read(read) }
	m.With(body)
	if n := testing.AllocsPerRun(1000, func() { m.With(body) }); n != 0 {
		t.Fatalf("warm With allocates %v objects per op, want 0", n)
	}
}

// TestLeaseResidentHandle: a long-lived Handle keeps one pid of a P=2 map
// out of circulation; it and the With callers sharing the other pid all
// make progress, and a With caller that found the lease empty runs as soon
// as the scoped lease ahead of it returns.
func TestLeaseResidentHandle(t *testing.T) {
	m := newIntMap(t, "pswf", 2, nil)
	resident := m.Handle()

	entered := make(chan struct{})
	release := make(chan struct{})
	go m.With(func(*intHandle) {
		close(entered)
		<-release // hold the only other pid
	})
	<-entered

	done := make(chan struct{})
	go func() {
		m.With(func(h *intHandle) {
			h.Update(func(tx *Txn[int64, int64, int64]) { tx.Insert(1, 1) })
		})
		close(done)
	}()

	resident.Update(func(tx *Txn[int64, int64, int64]) { tx.Insert(2, 2) })
	close(release)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("With starved behind a resident Handle")
	}
	resident.Read(func(s Snapshot[int64, int64, int64]) {
		if s.Len() != 2 {
			t.Errorf("Len = %d, want both writers' keys", s.Len())
		}
	})
	resident.Close()
	checkAllFree(t, m)
	m.Close()
	if live := m.Ops().Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

// TestLeaseClose: Close is idempotent on a Handle() result, and tolerated
// inside With — under a storm of callbacks that Close their scoped handle,
// every pid is still released exactly once.
func TestLeaseClose(t *testing.T) {
	const procs = 8
	m := newIntMap(t, "pswf", procs, nil)
	h1, h2 := m.Handle(), m.Handle()
	if h1.Pid() == h2.Pid() {
		t.Fatalf("both handles leased pid %d", h1.Pid())
	}
	h1.Close()
	h1.Close() // must not push the pid a second time
	if free := freePids(m); len(free) != procs-1 {
		t.Fatalf("free stack %v after a double Close, want %d pids", free, procs-1)
	}
	h2.Close()

	inUse := make([]atomic.Bool, procs)
	goroutines := runtime.GOMAXPROCS(0) * 4
	const iters = 1500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.With(func(h *intHandle) {
					pid := h.Pid()
					if !inUse[pid].CompareAndSwap(false, true) {
						t.Errorf("pid %d double-leased", pid)
						return
					}
					h.Read(func(s Snapshot[int64, int64, int64]) { s.Get(int64(i)) })
					if i%3 == 0 {
						h.Close() // the lease must stay ours until With returns
					}
					if !inUse[pid].CompareAndSwap(true, false) {
						t.Errorf("pid %d released twice", pid)
					}
				})
			}
		}()
	}
	wg.Wait()
	checkAllFree(t, m)
	m.Close()
	if live := m.Ops().Live(); live != 0 {
		t.Fatalf("leaked %d nodes", live)
	}
}

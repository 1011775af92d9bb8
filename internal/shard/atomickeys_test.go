package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvgc/internal/ftree"
)

// TestOCCUnfencedWriterInvariant is the headline guarantee under -race:
// UpdateAtomicKeys transfers use blind read-compute-write (absolute values,
// no commutative deltas), while point writers hammer the same keys with
// increments.  A transfer whose reads a hammer commit could overtake before
// its install would overwrite the increment, and the account sum would
// drift; holding the footprint's writer slots from before f until the
// install is what rules that out.  The final sum must equal the initial
// sum plus the hammerers' recorded net, and no Set may ever have failed.
func TestOCCUnfencedWriterInvariant(t *testing.T) {
	const (
		accounts = 64
		initBal  = int64(1 << 20) // deep enough that transfers never bottom out
	)
	transfersPerThread := 400
	hammersPerThread := 1200
	if testing.Short() {
		transfersPerThread, hammersPerThread = 120, 360
	}
	threads := runtime.GOMAXPROCS(0)
	if threads < 2 {
		threads = 2
	}

	initial := make([]ftree.Entry[int64, int64], accounts)
	for i := range initial {
		initial[i] = ftree.Entry[int64, int64]{Key: int64(i), Val: initBal}
	}
	m := newSharded(t, "pswf", 4, threads+2, initial)
	defer m.Close()
	add := func(old, new int64) int64 { return old + new }

	var hammerNet atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(seed int64) { // transfer threads: multi-key CAS
			defer wg.Done()
			rng := seed
			next := func() int64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng }
			for n := 0; n < transfersPerThread; n++ {
				a := next() % accounts
				if a < 0 {
					a = -a
				}
				b := (a + 1 + (next()&0xff)%(accounts-1)) % accounts
				m.UpdateAtomicKeys([]int64{a, b}, func(tx *Txn[int64, int64, int64]) {
					// Blind CAS shape: absolute rewrites computed from the
					// reads.  Any stale read that committed would erase a
					// hammer increment.
					av, _ := tx.Get(a)
					bv, _ := tx.Get(b)
					// Arbitrary user work between read and write is legal and
					// widens the window a writer would need; the guarantee
					// must hold regardless.
					runtime.Gosched()
					tx.Insert(a, av-1)
					tx.Insert(b, bv+1)
				})
			}
		}(int64(w)*7919 + 1)
		wg.Add(1)
		go func(seed int64) { // hammer threads: point increments
			defer wg.Done()
			rng := seed
			next := func() int64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng }
			for n := 0; n < hammersPerThread; n++ {
				k := next() % accounts
				if k < 0 {
					k = -k
				}
				if err := m.InsertWith(k, 3, add); err != nil {
					t.Error(err)
					return
				}
				hammerNet.Add(3)
			}
		}(int64(w)*104729 + 13)
	}
	wg.Wait()

	var sum int64
	m.ViewConsistent(func(s Snap[int64, int64, int64]) {
		s.ForEachCond(func(_ int64, v int64) bool { sum += v; return true })
	})
	want := int64(accounts)*initBal + hammerNet.Load()
	if sum != want {
		t.Fatalf("sum invariant broken: got %d, want %d (drift %d): a stale read committed",
			sum, want, sum-want)
	}
	if a := m.Aborts(); a != 0 {
		t.Fatalf("%d Set failures: some commit ran beside its shard's writer", a)
	}
	t.Logf("fence restarts under hammering: %d (threads=%d)", m.OCCAborts(), threads)
}

// writeWaited runs write beside a transaction parked until release is
// closed, then releases it and waits for both.  It reports whether write
// finished while the transaction was still parked.
func writeWaited(write func(), release, done chan struct{}) (overtook bool) {
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		write()
	}()
	select {
	case <-wrote:
		overtook = true
	case <-time.After(5 * time.Millisecond):
	}
	close(release)
	<-done
	<-wrote
	return overtook
}

// TestOCCDeterministicAbort parks an UpdateAtomicKeys transaction between
// its read and its install and sends a point write at the read key: the
// point write must wait for the transaction — its shard's slot is in the
// fence — and land on top of it, and f must run exactly once.
func TestOCCDeterministicAbort(t *testing.T) {
	initial := []ftree.Entry[int64, int64]{}
	for i := int64(0); i < 32; i++ {
		initial = append(initial, ftree.Entry[int64, int64]{Key: i, Val: 100})
	}
	m := newSharded(t, "pswf", 2, 4, initial)
	defer m.Close()

	const k = int64(7)
	read, release := make(chan struct{}), make(chan struct{})
	runs := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.UpdateAtomicKeys([]int64{k}, func(tx *Txn[int64, int64, int64]) {
			runs++
			v, _ := tx.Get(k)
			if runs == 1 {
				close(read) // hold the read …
				<-release   // … while the point write tries to commit
			}
			tx.Insert(k, v+1)
		})
	}()
	<-read
	if writeWaited(func() { m.Insert(k, 777) }, release, done) {
		t.Fatal("a point write on a footprint key committed inside the transaction")
	}
	if runs != 1 {
		t.Fatalf("callback ran %d times, want 1", runs)
	}
	if got := m.OCCAborts(); got != 0 {
		t.Fatalf("OCCAborts() = %d, want 0", got)
	}
	if v, _ := m.Get(k); v != 777 {
		t.Fatalf("final value %d, want 777 (the point write lands after the transaction's 101)", v)
	}
}

// TestOCCValidatesReadsOutsideFootprint declares a one-key footprint and
// reads keys on OTHER shards inside the transaction.  A read outside the
// fence dooms the attempt and fences its shard: a read of one other shard
// restarts once, and the retry's read is stable — a point write sent while
// it is parked waits for it.  An f that reads a new shard on every run
// restarts once per shard, so f runs at most S times.
func TestOCCValidatesReadsOutsideFootprint(t *testing.T) {
	const shards = 4
	initial := []ftree.Entry[int64, int64]{}
	for i := int64(0); i < 64; i++ {
		initial = append(initial, ftree.Entry[int64, int64]{Key: i, Val: int64(i)})
	}
	m := newSharded(t, "pswf", shards, 4, initial)
	defer m.Close()

	// keyOn[i] is a key on shard i; dst is the footprint.
	keyOn := make([]int64, shards)
	for i := range keyOn {
		keyOn[i] = -1
	}
	for k := int64(0); k < 64; k++ {
		if i := m.ShardFor(k); keyOn[i] < 0 {
			keyOn[i] = k
		}
	}
	for i, k := range keyOn {
		if k < 0 {
			t.Skipf("hash put no key below 64 on shard %d", i)
		}
	}
	dst := keyOn[0]
	src := keyOn[1]

	t.Run("one-shard", func(t *testing.T) {
		before := m.OCCAborts()
		read, release := make(chan struct{}), make(chan struct{})
		runs := 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			m.UpdateAtomicKeys([]int64{dst}, func(tx *Txn[int64, int64, int64]) {
				runs++
				v, _ := tx.Get(src) // cross-shard read, not in the footprint
				if runs == 2 {
					close(read)
					<-release
				}
				tx.Insert(dst, v*10)
			})
		}()
		<-read
		if writeWaited(func() { m.Insert(src, 5000) }, release, done) {
			t.Fatal("a point write on a fenced read key committed inside the transaction")
		}
		if runs != 2 || m.OCCAborts() != before+1 {
			t.Fatalf("callback ran %d times with %d restarts, want 2 and 1", runs, m.OCCAborts()-before)
		}
		if v, _ := m.Get(dst); v != src*10 {
			t.Fatalf("dst = %d, want %d (derived from the read the transaction held)", v, src*10)
		}
	})

	t.Run("every-shard-at-once", func(t *testing.T) {
		before, runs := m.OCCAborts(), 0
		m.UpdateAtomicKeys([]int64{dst}, func(tx *Txn[int64, int64, int64]) {
			runs++
			var sum int64
			for _, k := range keyOn {
				v, _ := tx.Get(k)
				sum += v
			}
			tx.Insert(dst, sum)
		})
		if runs != 2 || m.OCCAborts() != before+1 {
			t.Fatalf("callback ran %d times with %d restarts, want 2 and 1", runs, m.OCCAborts()-before)
		}
	})

	t.Run("one-new-shard-per-run", func(t *testing.T) {
		before, runs := m.OCCAborts(), 0
		m.UpdateAtomicKeys([]int64{dst}, func(tx *Txn[int64, int64, int64]) {
			runs++
			var sum int64
			for _, k := range keyOn[1:min(runs+1, shards)] { // run r reads shards 1..r
				v, _ := tx.Get(k)
				sum += v
			}
			tx.Insert(dst, sum)
		})
		if runs != shards || m.OCCAborts()-before != shards-1 {
			t.Fatalf("callback ran %d times with %d restarts, want %d (= S) and %d",
				runs, m.OCCAborts()-before, shards, shards-1)
		}
	})
}

// TestOCCReadOnlyTxn covers the no-write path: it must still terminate and
// report a mutually consistent read set.
func TestOCCReadOnlyTxn(t *testing.T) {
	initial := []ftree.Entry[int64, int64]{{Key: 1, Val: 10}, {Key: 2, Val: 20}}
	m := newSharded(t, "pswf", 2, 3, initial)
	defer m.Close()

	var a, b int64
	m.UpdateAtomicKeys([]int64{1, 2}, func(tx *Txn[int64, int64, int64]) {
		a, _ = tx.Get(1)
		b, _ = tx.Get(2)
	})
	if a != 10 || b != 20 {
		t.Fatalf("read-only txn got (%d, %d), want (10, 20)", a, b)
	}
}

// TestOCCWriteSkew: two transactions with disjoint single-shard footprints
// each read BOTH keys and conditionally write only their own — the classic
// write-skew shape, invisible to any per-key check.  Each one's read of the
// other's key fences the other's shard, so the committing attempts hold
// both slots and run one after the other.  The on-call invariant a+b >= 1
// must hold after every round.
func TestOCCWriteSkew(t *testing.T) {
	m := newSharded(t, "pswf", 4, 4, nil)
	defer m.Close()
	a, b := int64(0), int64(-1)
	for i := int64(1); i < 64; i++ {
		if m.ShardFor(i) != m.ShardFor(a) {
			b = i
			break
		}
	}
	if b < 0 {
		t.Skip("hash put 64 keys on one shard")
	}

	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	for r := 0; r < rounds; r++ {
		m.Insert(a, 1)
		m.Insert(b, 1)
		var wg sync.WaitGroup
		oncall := func(mine, other int64) {
			defer wg.Done()
			m.UpdateAtomicKeys([]int64{mine}, func(tx *Txn[int64, int64, int64]) {
				mv, _ := tx.Get(mine)
				ov, _ := tx.Get(other)
				runtime.Gosched() // widen the read-to-install overlap
				if mv+ov > 1 {
					tx.Insert(mine, 0)
				}
			})
		}
		wg.Add(2)
		go oncall(a, b)
		go oncall(b, a)
		wg.Wait()
		va, _ := m.Get(a)
		vb, _ := m.Get(b)
		if va+vb < 1 {
			t.Fatalf("round %d: write skew committed (a=%d, b=%d, both saw sum 2 and both went off call)", r, va, vb)
		}
	}
}

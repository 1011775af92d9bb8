package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// TestOCCUnfencedWriterInvariant is the headline guarantee under -race:
// UpdateAtomicKeys transfers use blind read-compute-write (absolute values,
// no commutative deltas), while unfenced plain point writers hammer the
// same keys with increments that never take a writer slot.  Without
// install-time read validation a transfer that read key k before a hammer
// commit and installed after it would overwrite the increment, and the
// account sum would drift — which is exactly how this test fails on the
// pre-OCC code if the validation gate is bypassed.  With validation the
// final sum must equal the initial sum plus the hammerers' recorded net.
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

	var hammerNet atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(seed int64) { // transfer threads: validated multi-key CAS
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
					// validated reads.  Any stale read that committed would
					// erase a hammer increment.
					av, _ := tx.Get(a)
					bv, _ := tx.Get(b)
					// Arbitrary user work between read and write is legal and
					// widens the conflict window; the guarantee must hold
					// regardless (without install-time validation this yield
					// makes the sum drift within a few hundred transfers).
					runtime.Gosched()
					tx.Insert(a, av-1)
					tx.Insert(b, bv+1)
				})
			}
		}(int64(w)*7919 + 1)
		wg.Add(1)
		go func(seed int64) { // unfenced hammer threads: plain point updates
			defer wg.Done()
			rng := seed
			next := func() int64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng }
			for n := 0; n < hammersPerThread; n++ {
				k := next() % accounts
				if k < 0 {
					k = -k
				}
				// Single-key read-modify-write: atomic on its own (core
				// re-runs the callback on conflict), takes no writer slot.
				m.shards[m.ShardFor(k)].With(func(h *coreHandle) {
					h.Update(func(tx *coreTxn) {
						v, _ := tx.Get(k)
						tx.Insert(k, v+3)
					})
				})
				hammerNet.Add(3)
			}
		}(int64(w)*104729 + 13)
	}
	wg.Wait()

	var sum int64
	m.ViewConsistent(func(s Snap[int64, int64, int64]) {
		s.ForEach(func(_ int64, v int64) { sum += v })
	})
	want := int64(accounts)*initBal + hammerNet.Load()
	if sum != want {
		t.Fatalf("sum invariant broken: got %d, want %d (drift %d): an invalidated read committed",
			sum, want, sum-want)
	}
	t.Logf("occ aborts under hammering: %d (threads=%d)", m.OCCAborts(), threads)
}

// TestOCCDeterministicAbort parks an UpdateAtomicKeys transaction between
// its read and its install, lands an unfenced point write on the read key,
// and releases it: install-time validation must abort the first attempt,
// re-run the callback against the new value, and commit the second — the
// retry loop and abort counter observed deterministically rather than
// hoping a stress race fires.
func TestOCCDeterministicAbort(t *testing.T) {
	initial := []ftree.Entry[int64, int64]{}
	for i := int64(0); i < 32; i++ {
		initial = append(initial, ftree.Entry[int64, int64]{Key: i, Val: 100})
	}
	m := newSharded(t, "pswf", 2, 4, initial)
	defer m.Close()

	const k = int64(7)
	read, hammered := make(chan struct{}), make(chan struct{})
	runs := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.UpdateAtomicKeys([]int64{k}, func(tx *Txn[int64, int64, int64]) {
			runs++
			v, _ := tx.Get(k)
			if runs == 1 {
				close(read) // first attempt: hold the stale read …
				<-hammered  // … until the point writer has committed
			}
			tx.Insert(k, v+1)
		})
	}()
	<-read
	m.Insert(k, 777) // unfenced: plain point write, no slot taken
	close(hammered)
	<-done

	if runs != 2 {
		t.Fatalf("callback ran %d times, want 2 (abort must re-run f)", runs)
	}
	if got := m.OCCAborts(); got != 1 {
		t.Fatalf("OCCAborts() = %d, want exactly 1", got)
	}
	if v, _ := m.Get(k); v != 778 {
		t.Fatalf("final value %d, want 778 (second attempt must read the hammered 777)", v)
	}
}

// TestOCCValidatesReadsOutsideFootprint declares a write-only footprint and
// reads a key on a DIFFERENT shard inside the transaction: the read is
// outside every held writer slot, so only stripe validation protects it.
// The parked-write pattern proves it does.
func TestOCCValidatesReadsOutsideFootprint(t *testing.T) {
	initial := []ftree.Entry[int64, int64]{}
	for i := int64(0); i < 64; i++ {
		initial = append(initial, ftree.Entry[int64, int64]{Key: i, Val: int64(i)})
	}
	m := newSharded(t, "pswf", 4, 4, initial)
	defer m.Close()

	// Pick src on a different shard than dst so the read is unfenced.
	dst := int64(1)
	src := int64(-1)
	for i := int64(2); i < 64; i++ {
		if m.ShardFor(i) != m.ShardFor(dst) {
			src = i
			break
		}
	}
	if src < 0 {
		t.Skip("hash put 64 keys on one shard")
	}

	read, hammered := make(chan struct{}), make(chan struct{})
	runs := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.UpdateAtomicKeys([]int64{dst}, func(tx *Txn[int64, int64, int64]) {
			runs++
			v, _ := tx.Get(src) // cross-shard read, not in the footprint
			if runs == 1 {
				close(read)
				<-hammered
			}
			tx.Insert(dst, v*10)
		})
	}()
	<-read
	m.Insert(src, 5000)
	close(hammered)
	<-done

	if runs != 2 {
		t.Fatalf("callback ran %d times, want 2", runs)
	}
	if v, _ := m.Get(dst); v != 50000 {
		t.Fatalf("dst = %d, want 50000 (derived from the post-hammer read)", v)
	}
}

// TestOCCReadOnlyTxn covers the no-write path: validation alone (no install
// window) must still terminate and report a mutually consistent read set.
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

// TestOCCInstallWindowLostUpdate lands an unfenced point increment
// deterministically inside the validate-to-install window — after the
// transaction's read-set validation has passed, before any shard's root is
// published — via the testPostValidate hook.  This is the window validation
// alone cannot cover: without the write-set install locks the increment
// commits mid-window and the install's absolute value silently erases it
// (final 200, a lost update).  With the locks the increment must stall
// until the install publishes and then land on top of it (final 205),
// whichever side of the window the scheduler puts it on.
func TestOCCInstallWindowLostUpdate(t *testing.T) {
	const k = int64(3)
	m := newSharded(t, "pswf", 2, 4, []ftree.Entry[int64, int64]{{Key: k, Val: 100}})
	defer m.Close()

	var hammer sync.WaitGroup
	fired := false
	m.testPostValidate = func() {
		if fired { // only the first attempt's window hosts the race
			return
		}
		fired = true
		hammer.Add(1)
		go func() {
			defer hammer.Done()
			// Unfenced single-key read-modify-write: no writer slot, atomic
			// on its own (core re-runs the callback on root conflict).
			m.shards[m.ShardFor(k)].With(func(h *coreHandle) {
				h.Update(func(tx *coreTxn) {
					v, _ := tx.Get(k)
					tx.Insert(k, v+5)
				})
			})
		}()
		// Park inside the window long enough for the increment to either
		// commit (the pre-lock bug) or reach the install-lock stall (the
		// guarantee under test).
		time.Sleep(2 * time.Millisecond)
	}
	m.UpdateAtomicKeys([]int64{k}, func(tx *Txn[int64, int64, int64]) {
		v, _ := tx.Get(k)
		tx.Insert(k, v*2)
	})
	m.testPostValidate = nil
	hammer.Wait()

	if v, _ := m.Get(k); v != 205 {
		t.Fatalf("k = %d, want 205 (100*2+5): an unfenced write in the validate-to-install window was lost", v)
	}
}

// TestOCCWriteSkew: two transactions with disjoint single-shard footprints
// each read BOTH keys and conditionally write only their own — the classic
// write-skew shape, invisible to any per-key check.  Lock-before-validate
// makes it impossible: each locks its write stripe before validating its
// read of the other's key, so when the windows overlap at least one sees
// the other's lock (or its completed write) and aborts.  The on-call
// invariant a+b >= 1 must hold after every round.
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

// coreHandle / coreTxn shorten the hammer path's types.
type coreHandle = core.Handle[int64, int64, int64]
type coreTxn = core.Txn[int64, int64, int64]

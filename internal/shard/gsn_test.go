package shard

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/wal"
)

// loggedRec is one record a tailer handed out: its GSN and the shards its
// ops touch.
type loggedRec struct {
	gsn    uint64
	shards []int
}

// drainLogged walks every record the tailer has ready.
func drainLogged(t *testing.T, m *Map[uint64, uint64, struct{}], tail *wal.Tailer) (recs []loggedRec) {
	t.Helper()
	for {
		run, err := tail.Next(false)
		if err != nil {
			t.Fatal(err)
		}
		if len(run) == 0 {
			return recs
		}
		for len(run) > 0 {
			gsn, payload, n, err := wal.NextFrame(run)
			if err != nil {
				t.Fatal(err)
			}
			r := loggedRec{gsn: gsn}
			touch := func(k uint64) {
				if i := m.ShardFor(k); !slices.Contains(r.shards, i) {
					r.shards = append(r.shards, i)
				}
			}
			if err := decodeWALOps(&m.wal.cfg, payload, func(k, _ uint64) { touch(k) }, touch); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
			run = run[n:]
		}
	}
}

// latestStamps reads every shard's published stamp and checks its install
// seqlock is even.
func latestStamps[K, V, A any](t *testing.T, m *Map[K, V, A]) []uint64 {
	t.Helper()
	out := make([]uint64, len(m.shards))
	for i, s := range m.shards {
		if q := s.seq.Load(); q&1 != 0 {
			t.Fatalf("shard %d install seqlock odd (%d) at rest", i, q)
		}
		out[i] = s.latest.Load()
	}
	return out
}

// TestStampAdvancesPerCommit: every write shape advances each shard it
// writes to the GSN it logs — point, batch, combiner batch, atomic install,
// a Txn.InsertBatch, UpdateAtomicKeys on one shard and on two, a replayed
// record — and a commit that publishes nothing, on one shard or on several,
// takes no GSN and appends no record.  Only a write of two or more shards
// moves install seqlocks, and every seqlock is even after every row.
// A shard's stamp moves exactly when its contents do, so an atomic leg that
// publishes nothing beside one that does is neither stamped nor logged.  A
// snapshot load stamps every shard with the cut of the checkpoint it writes.
func TestStampAdvancesPerCommit(t *testing.T) {
	type txn = Txn[uint64, uint64, struct{}]
	m, log := newWALMap(t, 4, wal.NewMemFS())
	defer m.Close()
	tail, err := log.Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if g := latestStamps(t, m); slices.Max(g) != 0 {
		t.Fatalf("fresh map stamps %v, want all 0", g)
	}
	add := func(old, new uint64) uint64 { return old + new }
	record := func(k, v uint64) []byte {
		e := &walEnc[uint64, uint64]{cfg: &m.wal.cfg}
		e.appendInsert(k, v)
		return e.buf
	}
	// seqs is how many shards' install seqlocks the row moves, each by one
	// odd/even pair: the shards a write spanning two or more writes.  A
	// one-shard commit leaves its seqlock where it was.
	rows := []struct {
		name    string
		write   func() error
		records int
		seqs    int
	}{
		{"point", func() error { return m.Insert(1, 10) }, 1, 0},
		{"point/no-op", func() error { return m.Delete(999) }, 0, 0},
		{"read-only", func() error { m.Get(1); return m.UpdateAtomicKeys([]uint64{1}, func(tx *txn) { tx.Get(1) }) }, 0, 0},
		{"batch", func() error {
			return m.InsertBatch([]ftree.Entry[uint64, uint64]{{Key: 2, Val: 1}, {Key: 3, Val: 1}, {Key: 4, Val: 1}, {Key: 5, Val: 1}}, nil)
		}, 1, 4},
		{"batch/no-op", func() error { return deleteAtomic(m, 997, 998) }, 0, 2},
		{"CommitEach", func() error {
			return m.groupCommit(m.CommitEach(func(tx *txn) { tx.Insert(6, 1) }))
		}, 1, 0},
		{"CommitEach/two shards", func() error { // one commit per shard: no seqlock
			return m.groupCommit(m.CommitEach(func(tx *txn) { tx.Insert(15, 1); tx.Delete(6); tx.Insert(6, 2) }))
		}, 2, 0},
		{"atomic install", func() error {
			return m.UpdateAtomic(func(tx *txn) { tx.Insert(7, 1); tx.Insert(8, 1); tx.InsertWith(9, 1, add) })
		}, 1, 3},
		{"atomic install/no-op", func() error {
			return m.UpdateAtomic(func(tx *txn) { tx.Delete(997); tx.Delete(998) })
		}, 0, 2},
		{"atomic install/no-op leg", func() error {
			return m.UpdateAtomic(func(tx *txn) { tx.Insert(12, 1); tx.Delete(997) })
		}, 1, 2}, // shard 0 publishes; shard 1's delete of an absent key does not
		{"Txn.InsertBatch", func() error {
			return m.UpdateAtomic(func(tx *txn) {
				tx.InsertBatch([]ftree.Entry[uint64, uint64]{{Key: 9, Val: 1}, {Key: 10, Val: 1}, {Key: 9, Val: 1}}, add)
			})
		}, 1, 2},
		{"UpdateAtomicKeys/one shard", func() error {
			return m.UpdateAtomicKeys([]uint64{1, 5}, func(tx *txn) {
				a, _ := tx.Get(1)
				b, _ := tx.Get(5)
				tx.Insert(1, a+b)
				tx.Insert(5, a)
			})
		}, 1, 0},
		{"UpdateAtomicKeys/two shards", func() error {
			return m.UpdateAtomicKeys([]uint64{1, 2}, func(tx *txn) {
				a, _ := tx.Get(1)
				b, _ := tx.Get(2)
				tx.Insert(1, b)
				tx.Insert(2, a)
			})
		}, 1, 2},
		{"replayed record", func() error { // relogged, synced only by SyncWAL
			if err := Applier(m).ReplayRecord(CommitGSN(m)+10, record(11, 1)); err != nil {
				return err
			}
			return Applier(m).SyncWAL()
		}, 1, 0},
	}
	seqlocks := func() []uint64 {
		out := make([]uint64, m.NumShards())
		for i, s := range m.shards {
			out[i] = s.seq.Load()
		}
		return out
	}
	perShard := func() []map[uint64]uint64 {
		out := make([]map[uint64]uint64, m.NumShards())
		for i := range out {
			out[i] = map[uint64]uint64{}
		}
		for k, v := range dump(m) {
			out[m.ShardFor(k)][k] = v
		}
		return out
	}
	for _, r := range rows {
		before, g0, was, seq0 := latestStamps(t, m), CommitGSN(m), perShard(), seqlocks()
		if err := r.write(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		recs := drainLogged(t, m, tail)
		if len(recs) != r.records {
			t.Fatalf("%s: %d records, want %d", r.name, len(recs), r.records)
		}
		want := slices.Clone(before)
		for _, rec := range recs {
			if rec.gsn <= g0 || rec.gsn > CommitGSN(m) {
				t.Fatalf("%s: record stamped %d, outside (%d, %d]", r.name, rec.gsn, g0, CommitGSN(m))
			}
			for _, i := range rec.shards {
				want[i] = rec.gsn
			}
		}
		got := latestStamps(t, m) // and every seqlock even
		moved := 0
		for i, q := range seqlocks() {
			if q != seq0[i] {
				if q != seq0[i]+2 {
					t.Fatalf("%s: shard %d seqlock %d → %d, want unmoved or one odd/even pair", r.name, i, seq0[i], q)
				}
				moved++
			}
		}
		if moved != r.seqs {
			t.Fatalf("%s: moved %d seqlocks, want %d", r.name, moved, r.seqs)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: shard stamps %v → %v, want %v (records %v)", r.name, before, got, want, recs)
		}
		for i, now := range perShard() {
			if changed := !maps.Equal(was[i], now); changed != (got[i] != before[i]) {
				t.Fatalf("%s: shard %d contents changed %v, but its stamp went %d → %d", r.name, i, changed, before[i], got[i])
			}
		}
		if r.records == 0 && CommitGSN(m) != g0 {
			t.Fatalf("%s published nothing but took GSN %d", r.name, CommitGSN(m))
		}
	}

	g0 := CommitGSN(m)
	if err := Applier(m).ApplyReplSnapshot(g0, snapshotPayload(0, 100, func(k uint64) uint64 { return k })); err != nil {
		t.Fatal(err)
	}
	g := CommitGSN(m)
	if cut := m.WALStats().SnapshotCut; g != g0+1 || cut != g {
		t.Fatalf("snapshot load: CommitGSN %d → %d, checkpoint cut %d; want one stamp, the cut", g0, g, cut)
	}
	for i, s := range latestStamps(t, m) {
		if s != g {
			t.Fatalf("snapshot load left shard %d at stamp %d, want %d", i, s, g)
		}
	}
}

// TestStampSharedSource: shards draw from one counter, so concurrent commits
// on different shards get distinct GSNs in one global order — the counter
// ends at the number of commits — and each shard's published stamp is the
// largest GSN it logged.
func TestStampSharedSource(t *testing.T) {
	m, log := newWALMap(t, 4, wal.NewMemFS())
	defer m.Close()
	tail, err := log.Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	const writers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := m.Insert(uint64(w*per+i), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if g := CommitGSN(m); g != writers*per {
		t.Fatalf("shared counter at %d after %d commits", g, writers*per)
	}
	recs := drainLogged(t, m, tail)
	seen := map[uint64]bool{}
	want := make([]uint64, m.NumShards())
	for _, r := range recs {
		if seen[r.gsn] {
			t.Fatalf("GSN %d logged twice", r.gsn)
		}
		seen[r.gsn] = true
		want[r.shards[0]] = max(want[r.shards[0]], r.gsn)
	}
	if len(recs) != writers*per {
		t.Fatalf("%d records for %d commits", len(recs), writers*per)
	}
	if got := latestStamps(t, m); !slices.Equal(got, want) {
		t.Fatalf("shard stamps %v, want the largest each logged %v", got, want)
	}
}

// TestInstallProtocol walks one install from the inside: while its legs run
// the touched shards' seqlocks are odd and their stamps unmoved — a leg is
// visible before the transaction's GSN exists — and afterwards one fresh GSN
// is published on every touched shard, the untouched one keeps its own, and
// the seqlocks are even again.
func TestInstallProtocol(t *testing.T) {
	m, _ := newWALMap(t, 3, wal.NewMemFS())
	defer m.Close()
	for k := uint64(0); k < 3; k++ {
		if err := m.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := latestStamps(t, m)
	fence := []int{0, 2}
	m.lockSlots(fence)
	in := m.openInstall(fence)
	for _, i := range fence {
		if q := m.shards[i].seq.Load(); q&1 != 1 {
			t.Errorf("shard %d seqlock %d during the install, want odd", i, q)
		}
		m.shards[i].With(func(h *core.Handle[uint64, uint64, struct{}]) {
			h.Update(func(tx *core.Txn[uint64, uint64, struct{}]) { tx.Insert(uint64(i), 2) })
		})
		if s := m.shards[i].latest.Load(); s != before[i] {
			t.Errorf("shard %d leg moved its stamp %d → %d before the install published", i, before[i], s)
		}
	}
	if q := m.shards[1].seq.Load(); q != 0 {
		t.Errorf("untouched shard's seqlock at %d", q)
	}
	g := in.close(fence)
	m.unlockSlots(fence)
	if g != CommitGSN(m) || g <= slices.Max(before) {
		t.Fatalf("install stamped %d, CommitGSN %d, stamps before %v", g, CommitGSN(m), before)
	}
	if got, want := latestStamps(t, m), []uint64{g, before[1], g}; !slices.Equal(got, want) {
		t.Fatalf("stamps after the install %v, want %v", got, want)
	}
	for k, want := range []uint64{2, 1, 2} {
		if v, _ := m.Get(uint64(k)); v != want {
			t.Fatalf("key %d = %d after the install, want %d", k, v, want)
		}
	}
}

// TestInstallAtomic: an atomic commit publishes ONE GSN on every shard it
// touched, returns it, and leaves each seqlock even, advanced by exactly one
// odd/even pair; an empty footprint installs nothing, returns 0 and leaves
// the seqlocks where they were; an install whose legs published nothing
// takes no GSN and returns its seqlocks to even.  The public UpdateAtomic
// goes the same way.
func TestInstallAtomic(t *testing.T) {
	type txn = Txn[uint64, uint64, struct{}]
	m, _ := newWALMap(t, 2, wal.NewMemFS())
	defer m.Close()
	all := []int{0, 1}
	m.lockSlots(all)
	in := m.openInstall(all)
	for i, s := range m.shards {
		s.With(func(h *core.Handle[uint64, uint64, struct{}]) {
			h.Update(func(tx *core.Txn[uint64, uint64, struct{}]) { tx.Insert(uint64(i), 1) })
		})
	}
	g := in.close(all)
	m.unlockSlots(all)
	if g == 0 || CommitGSN(m) != g {
		t.Fatalf("install returned %d, CommitGSN %d", g, CommitGSN(m))
	}
	for i, s := range m.shards {
		if got := s.latest.Load(); got != g {
			t.Fatalf("shard %d published %d, want %d", i, got, g)
		}
		if q := s.seq.Load(); q != 2 {
			t.Fatalf("shard %d seqlock %d after one install, want 2", i, q)
		}
		if v, ok := m.Get(uint64(i)); !ok || v != 1 {
			t.Fatalf("shard %d lost its leg: %d,%v", i, v, ok)
		}
	}
	empty := m.openInstall(nil)
	if g := empty.close(nil); g != 0 {
		t.Fatalf("empty footprint returned %d", g)
	}
	m.lockSlots(all)
	g0 := CommitGSN(m)
	in = m.openInstall(all)
	if g := in.close(nil); g != 0 || CommitGSN(m) != g0 {
		t.Fatalf("an install that published nothing returned %d and moved CommitGSN %d → %d", g, g0, CommitGSN(m))
	}
	q0 := m.shards[0].seq.Load()
	if g := in.close(all); g != 0 || CommitGSN(m) != g0 || m.shards[0].seq.Load() != q0 {
		t.Fatalf("a second close returned %d, moved CommitGSN %d → %d or seqlock %d → %d", g, g0, CommitGSN(m), q0, m.shards[0].seq.Load())
	}
	m.unlockSlots(all)
	if err := m.UpdateAtomic(func(tx *txn) { tx.Insert(2, 1); tx.Insert(3, 1) }); err != nil {
		t.Fatal(err)
	}
	g = CommitGSN(m)
	for i, s := range m.shards {
		if s.latest.Load() != g || s.seq.Load() != 6 {
			t.Fatalf("shard %d after UpdateAtomic: stamp %d seqlock %d, want %d and 6", i, s.latest.Load(), s.seq.Load(), g)
		}
	}
}

// TestAtomicPanicReleases pins the panic contract of the atomic install: a
// comb that panics mid-install — after another shard's leg has already been
// installed — reaches UpdateAtomic's caller, and leaves every writer slot
// free and every seqlock even.  So afterwards a ViewConsistent completes
// without the fence, the next UpdateAtomic commits, and Close leaves nothing
// live.  Both leg schedules: sequential (a small transaction) and parallel
// (two legs of parallelIngestFloor intents).
func TestAtomicPanicReleases(t *testing.T) {
	type txn = Txn[uint64, uint64, struct{}]
	boom := func(old, new uint64) uint64 { panic("comb") }
	for _, legSize := range []int{1, parallelIngestFloor} {
		m := newU64Map(t, 2, []ftree.Entry[uint64, uint64]{{Key: 1, Val: 1}})
		// Shard 1's leg starts with a comb on a present key, so its panic
		// comes before the leg allocates anything; shard 0's leg is plain.
		write := func(tx *txn) {
			tx.InsertWith(1, 1, boom)
			for i := 0; i < legSize; i++ {
				tx.Insert(uint64(2*i+2), 7)
				tx.Insert(uint64(2*i+3), 7)
			}
		}
		var got any
		func() {
			defer func() { got = recover() }()
			m.UpdateAtomic(write)
		}()
		if got != "comb" {
			t.Fatalf("legs of %d: the caller recovered %v, want the comb's panic", legSize, got)
		}
		if v, _ := m.Get(2); v != 7 {
			t.Fatalf("legs of %d: shard 0's leg was not installed before the panic (key 2 = %d)", legSize, v)
		}
		latestStamps(t, m) // every seqlock even
		_, fenced := m.ConsistentStats()
		m.ViewConsistent(func(s Snap[uint64, uint64, struct{}]) { s.Len() })
		if _, f := m.ConsistentStats(); f != fenced {
			t.Fatalf("legs of %d: ViewConsistent took the fence after the panic", legSize)
		}
		if err := m.UpdateAtomic(func(tx *txn) { tx.Insert(1, 9); tx.Insert(2, 9) }); err != nil {
			t.Fatal(err)
		}
		if v, _ := m.Get(1); v != 9 {
			t.Fatalf("legs of %d: the next UpdateAtomic did not commit (key 1 = %d)", legSize, v)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if live := m.Live(); live != 0 {
			t.Fatalf("legs of %d: %d nodes live after Close", legSize, live)
		}
	}
}

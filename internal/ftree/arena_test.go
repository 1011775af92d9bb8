package ftree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func arenaOps() *Ops[int64, int64, int64] {
	o := New[int64, int64, int64](IntCmp[int64], SumAug[int64](), 0)
	o.Recycle = true
	return o
}

// TestArenaRoundTrip: a bound view's single-writer churn must recycle
// entirely through the magazine, with Live() exact at every step and the
// tree identical to a map model.
func TestArenaRoundTrip(t *testing.T) {
	o := arenaOps()
	a := o.NewArena()
	bo := o.Bound(a)
	rng := rand.New(rand.NewSource(1))
	model := map[int64]int64{}
	var root *Node[int64, int64, int64]
	for i := 0; i < 20_000; i++ {
		k := int64(rng.Intn(500))
		var nr *Node[int64, int64, int64]
		if rng.Intn(3) == 0 {
			nr = bo.Delete(root, k)
			delete(model, k)
		} else {
			v := int64(i)
			nr = bo.Insert(root, k, v)
			model[k] = v
		}
		bo.Release(root)
		root = nr
		if i%4096 == 0 {
			if live, reach := o.Live(), o.ReachableNodes(root); live != reach {
				t.Fatalf("step %d: live %d ≠ reachable %d", i, live, reach)
			}
		}
	}
	if got, want := bo.Size(root), int64(len(model)); got != want {
		t.Fatalf("size %d, want %d", got, want)
	}
	for k, v := range model {
		if got, ok := bo.Find(root, k); !ok || got != v {
			t.Fatalf("key %d: got (%d,%v), want %d", k, got, ok, v)
		}
	}
	bo.Release(root)
	if o.Live() != 0 {
		t.Fatalf("leaked %d nodes", o.Live())
	}
	refills, spills, _ := a.Stats()
	t.Logf("arena: cached=%d refills=%d spills=%d", a.Cached(), refills, spills)
}

// TestArenaNoCrossReuseWhileLive: nodes reachable from a version committed
// by one arena must never be handed out by another arena (or any
// allocator) while that version is live.  Two owners churn their own trees
// concurrently off the same shared Ops family under -race; the freedMark
// poison plus ref panics turn any reuse-while-live into a loud failure,
// and each owner re-validates its own tree's contents continuously.
func TestArenaNoCrossReuseWhileLive(t *testing.T) {
	o := arenaOps()
	const owners = 4
	var wg sync.WaitGroup
	errs := make(chan error, owners)
	for w := 0; w < owners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := o.NewArena()
			bo := o.Bound(a)
			rng := rand.New(rand.NewSource(int64(w)))
			base := int64(w) * 1_000_000 // disjoint key spaces
			var root *Node[int64, int64, int64]
			for i := 0; i < 4000; i++ {
				k := base + int64(rng.Intn(200))
				nr := bo.Insert(root, k, k*2)
				bo.Release(root)
				root = nr
				// Spot-check a key: a node stolen by another owner while
				// this version is live would corrupt keys or panic.
				if v, ok := bo.Find(root, k); !ok || v != k*2 {
					errs <- errAt(w, i, k, v, ok)
					return
				}
			}
			bo.Release(root)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if o.Live() != 0 {
		t.Fatalf("leaked %d nodes", o.Live())
	}
}

type ownerErr struct {
	w, i int
	k, v int64
	ok   bool
}

func errAt(w, i int, k, v int64, ok bool) error { return ownerErr{w, i, k, v, ok} }
func (e ownerErr) Error() string {
	return "owner tree corrupted (cross-arena reuse of a live node?)"
}

// TestArenaSpillRefillMigration: internal nodes and leaf units freed by one
// arena must become allocatable by another via the depot — spill on one
// side, refill on the other — without disturbing exact accounting.
func TestArenaSpillRefillMigration(t *testing.T) {
	o := arenaOps()
	a1 := o.NewArena()
	b1 := o.Bound(a1)
	// Build and fully release a chunky tree on arena 1: far more leaves
	// than one magazine holds, so the surplus of both magazines spills to
	// the depot.
	var root *Node[int64, int64, int64]
	for i := int64(0); i < 4*magCap*leafMax; i++ {
		nr := b1.Insert(root, i, i)
		b1.Release(root)
		root = nr
	}
	b1.Release(root)
	if o.Live() != 0 {
		t.Fatalf("phase 1 leaked %d nodes", o.Live())
	}
	if a1.nodes.spills == 0 || a1.leaves.spills == 0 {
		t.Fatalf("freeing ≥ %d leaves spilled nodes %d times, leaves %d times; magazine capacity %d",
			4*magCap, a1.nodes.spills, a1.leaves.spills, magCap)
	}

	// Arena 2 must refill off those spilled nodes rather than carving
	// fresh chunks for everything.
	a2 := o.NewArena()
	b2 := o.Bound(a2)
	allocsBefore := o.Allocs()
	root = nil
	for i := int64(0); i < int64(magCap); i++ {
		nr := b2.Insert(root, i, i)
		b2.Release(root)
		root = nr
	}
	if a2.nodes.refills == 0 || a2.leaves.refills == 0 {
		t.Fatalf("arena 2 refilled nodes %d times, leaves %d times from the depot", a2.nodes.refills, a2.leaves.refills)
	}
	if _, _, carves := a2.Stats(); carves != 0 {
		t.Fatalf("arena 2 carved %d fresh chunks with the depot full", carves)
	}
	if o.Allocs() == allocsBefore {
		t.Fatalf("accounting stopped moving")
	}
	b2.Release(root)
	if o.Live() != 0 {
		t.Fatalf("phase 2 leaked %d nodes", o.Live())
	}
}

// TestArenaParallelBulk: with Grain forcing forks, parallel bulk ops on a
// bound view must stay correct and exact — forked branches run on the
// unbound root (see insertBoth), the spine keeps the arena.  Run with
// -race this doubles as the no-two-goroutines-on-one-arena check.
func TestArenaParallelBulk(t *testing.T) {
	o := New[int64, int64, int64](IntCmp[int64], SumAug[int64](), 64)
	o.Recycle = true
	a := o.NewArena()
	bo := o.Bound(a)
	rng := rand.New(rand.NewSource(7))
	var root *Node[int64, int64, int64]
	model := map[int64]int64{}
	for round := 0; round < 10; round++ {
		batch := make([]Entry[int64, int64], 1000)
		for i := range batch {
			k := int64(rng.Intn(5000))
			batch[i] = Entry[int64, int64]{Key: k, Val: int64(round)}
		}
		for _, e := range batch {
			model[e.Key] = e.Val
		}
		nr := bo.MultiInsert(root, batch, nil)
		bo.Release(root)
		root = nr
		// The forks counted in the root's atomics, the spine and the Release
		// in the arena's tally: the sum is what must be exact.
		if live, reach := o.Live(), o.ReachableNodes(root); live != reach {
			t.Fatalf("round %d: live %d ≠ reachable %d", round, live, reach)
		}
		gone := make([]int64, 0, len(batch)/2)
		for _, e := range batch[:len(batch)/2] {
			gone = append(gone, e.Key)
			delete(model, e.Key)
		}
		nr = bo.MultiDelete(root, gone)
		bo.Release(root)
		root = nr
		if live, reach := o.Live(), o.ReachableNodes(root); live != reach {
			t.Fatalf("round %d, after MultiDelete: live %d ≠ reachable %d", round, live, reach)
		}
	}
	if got, want := bo.Size(root), int64(len(model)); got != want {
		t.Fatalf("size %d, want %d", got, want)
	}
	for k, v := range model {
		if got, ok := bo.Find(root, k); !ok || got != v {
			t.Fatalf("key %d: got (%d,%v), want %d", k, got, ok, v)
		}
	}
	bo.Release(root)
	if o.Live() != 0 {
		t.Fatalf("leaked %d nodes", o.Live())
	}
}

// TestArenaFlush: Flush must park nothing, in any of the three magazines,
// and push everything back where other arenas can get it — in a family of
// wide leaves and in one of narrow leaves.
func TestArenaFlush(t *testing.T) {
	natural, _ := NewNatural[int64, int64, int64](SumAug[int64](), 0)
	natural.Recycle = true
	for _, c := range []struct {
		name   string
		o      *Ops[int64, int64, int64]
		narrow bool // the family's leaves are narrow units
	}{{"ordered by Cmp", arenaOps(), false}, {"natural", natural, true}} {
		o := c.o
		a := o.NewArena()
		bo := o.Bound(a)
		var root *Node[int64, int64, int64]
		for i := int64(0); i < 100; i++ {
			nr := bo.Insert(root, i, i)
			bo.Release(root)
			root = nr
		}
		bo.Release(root) // everything parks in the magazines
		leafMag := a.leaves.cached()
		if c.narrow {
			leafMag = a.narrow.cached()
		}
		if a.nodes.cached() == 0 || leafMag == 0 {
			t.Fatalf("%s: %d nodes and %d leaves parked before Flush", c.name, a.nodes.cached(), leafMag)
		}
		a.Flush()
		if n, l, w := a.nodes.cached(), a.leaves.cached(), a.narrow.cached(); n != 0 || l != 0 || w != 0 || a.Cached() != 0 {
			t.Fatalf("%s: %d nodes, %d wide and %d narrow leaves still parked after Flush", c.name, n, l, w)
		}
		if o.Live() != 0 {
			t.Fatalf("%s: leaked %d nodes", c.name, o.Live())
		}
		// The flushed nodes and leaves are now in the depot, available to
		// any arena or to the unbound root.
		nodes, leaves := o.sh.nodes.size.Load(), o.sh.leaves.size.Load()
		if c.narrow {
			leaves = o.sh.narrow.size.Load()
		}
		if nodes == 0 || leaves == 0 {
			t.Fatalf("%s: depot holds %d nodes and %d leaves after Flush", c.name, nodes, leaves)
		}
	}
}

// TestArenaAbandoned: an arena dropped without a Flush takes its magazines
// with it but not its tally — the units it allocated are still in the tree —
// so once the arena has been garbage-collected Live() is still exactly what
// the tree reaches, and comes back to zero when another view frees it.
func TestArenaAbandoned(t *testing.T) {
	o := arenaOps()
	collected := make(chan struct{})
	root := func() *Node[int64, int64, int64] {
		a := o.NewArena()
		runtime.SetFinalizer(a, func(*Arena[int64, int64, int64]) { close(collected) })
		bo := o.Bound(a)
		var root *Node[int64, int64, int64]
		for i := int64(0); i < 20*leafMax; i++ {
			nr := bo.Insert(root, i*7919%1000, i)
			bo.Release(root)
			root = nr
		}
		return root
	}()
	for gone := false; !gone; {
		runtime.GC()
		select {
		case <-collected:
			gone = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	checkExact(t, o, root)
	o.Release(root)
	if o.Live() != 0 {
		t.Fatalf("leaked %d nodes", o.Live())
	}
}

// TestDeleteAbsentSharesInput: the fused single-pass Delete must return a
// token on the unchanged input for absent keys and allocate nothing.
func TestDeleteAbsentSharesInput(t *testing.T) {
	o := arenaOps()
	var root *Node[int64, int64, int64]
	for i := int64(0); i < 100; i++ {
		nr := o.Insert(root, 2*i, i)
		o.Release(root)
		root = nr
	}
	allocs := o.Allocs()
	out := o.Delete(root, 51) // absent (odd)
	if out != root {
		t.Fatalf("absent-key delete returned a different tree")
	}
	if o.Allocs() != allocs {
		t.Fatalf("absent-key delete allocated %d nodes", o.Allocs()-allocs)
	}
	o.Release(out)
	o.Release(root)
	if o.Live() != 0 {
		t.Fatalf("leaked %d nodes", o.Live())
	}
}

// parkedLeaves empties an unbound family's depots of leaf units: the wide
// ones and the narrow ones.
func parkedLeaves[K, V, A any](o *Ops[K, V, A]) (wide []*leaf[K, V, A], narrow []*narrowLeaf[K, V, A]) {
	wide = o.sh.leaves.take(nil, int(o.sh.leaves.size.Load()))
	narrow = o.sh.narrow.take(nil, int(o.sh.narrow.size.Load()))
	return wide, narrow
}

// TestFreeClearsPointerfulBlocks: a freed leaf unit is parked, not handed
// back to the Go heap, so whatever its run still points at would stay alive
// for as long as it is parked.  With a pointer in the value or in the key
// every parked entry is zero, in a wide unit or a narrow one; with neither —
// where a stale entry pins nothing — the unit is parked as it was, wide or
// narrow, which is the clear per freed leaf that the collector does not pay.  Reference
// counted values in a family of both layouts (clustered keys make narrow
// leaves, spread ones wide) are released exactly once each.
func TestFreeClearsPointerfulBlocks(t *testing.T) {
	const n = 10 * leafMax
	type payload struct{ id, refs int }
	check := func(name string, parked, stale int, wantStale bool) {
		t.Helper()
		if parked < n/leafMax {
			t.Fatalf("%s: %d leaves parked after freeing %d entries", name, parked, n)
		}
		if (stale > 0) != wantStale {
			t.Fatalf("%s: %d stale entries in %d parked leaves, want stale: %v", name, stale, parked, wantStale)
		}
	}

	ptrs := New[int64, *payload, struct{}](IntCmp[int64], NoAug[int64, *payload](), 0)
	strs, _ := NewNatural[string, int64, struct{}](NoAug[string, int64](), 0)
	ints, _ := NewNatural[int64, int64, int64](SumAug[int64](), 0)
	wints := New[int64, int64, int64](IntCmp[int64], SumAug[int64](), 0)
	counted, _ := NewNatural[int64, *payload, struct{}](NoAug[int64, *payload](), 0)
	ptrs.Recycle, strs.Recycle, ints.Recycle, wints.Recycle, counted.Recycle = true, true, true, true, true
	counted.RetainVal = func(p *payload) *payload { p.refs++; return p }
	counted.ReleaseVal = func(p *payload) {
		if p.refs--; p.refs < 0 {
			t.Fatalf("payload %d released more often than retained", p.id)
		}
	}

	var pr, cr *Node[int64, *payload, struct{}]
	var sr *Node[string, int64, struct{}]
	var ir, wr *Node[int64, int64, int64]
	var payloads []*payload
	for i := 0; i < n; i++ {
		np := ptrs.Insert(pr, int64(i), &payload{id: i})
		ns := strs.Insert(sr, fmt.Sprintf("key-%04d", i), int64(i))
		ni := ints.Insert(ir, int64(i+1), int64(i+1))
		nw := wints.Insert(wr, int64(i+1), int64(i+1))
		ptrs.Release(pr)
		strs.Release(sr)
		ints.Release(ir)
		wints.Release(wr)
		pr, sr, ir, wr = np, ns, ni, nw
		for _, k := range []int64{int64(i), int64(i+1) << 20} {
			p := &payload{id: len(payloads), refs: 1}
			payloads = append(payloads, p)
			nc := counted.Insert(cr, k, p)
			counted.Release(cr)
			cr = nc
		}
		if i%3 == 0 { // and delete one, so leaves shrink as well as grow
			nc := counted.Delete(cr, int64(i/2))
			counted.Release(cr)
			cr = nc
		}
	}
	ptrs.Release(pr)
	strs.Release(sr)
	ints.Release(ir)
	wints.Release(wr)
	counted.Release(cr)
	if ptrs.Live() != 0 || strs.Live() != 0 || ints.Live() != 0 || wints.Live() != 0 || counted.Live() != 0 {
		t.Fatalf("live units after the release: %d, %d, %d, %d, %d", ptrs.Live(), strs.Live(), ints.Live(), wints.Live(), counted.Live())
	}
	for _, p := range payloads {
		if p.refs != 0 {
			t.Fatalf("payload %d holds %d references after the release, want 0", p.id, p.refs)
		}
	}

	staleWide := func(b []*leaf[int64, *payload, struct{}]) (stale int) {
		for _, u := range b {
			for _, e := range u.e {
				if e.Val != nil {
					stale++
				}
			}
		}
		return stale
	}
	staleNarrow := func(b []*narrowLeaf[int64, *payload, struct{}]) (stale int) {
		for _, u := range b {
			for _, v := range u.v {
				if v != nil {
					stale++
				}
			}
		}
		return stale
	}

	pw, pn := parkedLeaves(ptrs)
	if len(pn) != 0 {
		t.Fatalf("*T values ordered by Cmp: %d narrow leaves", len(pn))
	}
	check("*T values", len(pw), staleWide(pw), false)

	cw, cn := parkedLeaves(counted)
	check("*T values, spread keys", len(cw), staleWide(cw), false)
	check("*T values, clustered keys", len(cn), staleNarrow(cn), false)

	stale := 0
	sw, _ := parkedLeaves(strs)
	for _, b := range sw {
		for _, e := range b.e {
			if e.Key != "" {
				stale++
			}
		}
	}
	check("string keys", len(sw), stale, false)

	stale = 0
	_, in := parkedLeaves(ints)
	for _, b := range in {
		for _, v := range b.v {
			if v != 0 {
				stale++
			}
		}
	}
	check("int64/int64, narrow", len(in), stale, true)

	stale = 0
	ww, wn := parkedLeaves(wints)
	if len(wn) != 0 {
		t.Fatalf("int64/int64 ordered by Cmp: %d narrow leaves", len(wn))
	}
	for _, b := range ww {
		for _, e := range b.e {
			if e != (Entry[int64, int64]{}) {
				stale++
			}
		}
	}
	check("int64/int64, wide", len(ww), stale, true)
}

package ftree

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// fuzzTrees is the state one FuzzTreeOps input drives: the tree under test
// with its map model, a second fuzz-built tree for the binary set
// operations, and snapshots that must keep reading their own contents.
type fuzzTrees struct {
	t     *testing.T
	o     *Ops[int64, int64, int64]
	po    *Ops[int64, int64, int64] // the view the point writes and set's Release go through
	root  *Node[int64, int64, int64]
	ref   map[int64]int64
	other *Node[int64, int64, int64]
	oref  map[int64]int64
	snaps []*Node[int64, int64, int64]
	srefs []map[int64]int64
}

// set installs next as the tree under test and checks everything a step
// that returns a tree must leave true: structure, contents and exact space.
func (f *fuzzTrees) set(next *Node[int64, int64, int64]) {
	f.t.Helper()
	f.po.Release(f.root)
	f.root = next
	if err := f.o.Validate(f.root, augEq); err != nil {
		f.t.Fatal(err)
	}
	if f.o.Size(f.root) != int64(len(f.ref)) {
		f.t.Fatalf("size %d, want %d", f.o.Size(f.root), len(f.ref))
	}
	f.o.ForEach(f.root, func(k, v int64) {
		if want, ok := f.ref[k]; !ok || want != v {
			f.t.Fatalf("key %d = %d, want %d (present %v)", k, v, want, ok)
		}
	})
	roots := append([]*Node[int64, int64, int64]{f.root, f.other}, f.snaps...)
	if live, reach := f.o.Live(), f.o.ReachableNodes(roots...); live != reach {
		f.t.Fatalf("allocated %d ≠ reachable %d", live, reach)
	}
}

// keys returns the model's keys in order.
func (f *fuzzTrees) keys() []int64 {
	ks := make([]int64, 0, len(f.ref))
	for k := range f.ref {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// FuzzTreeOps drives the persistent map with an op sequence decoded from
// fuzz input — two-byte keys, so trees grow past leaf boundaries, clustered
// or spread so leaves change layout — through
// point, bulk, set, split/join, iterator and order-statistic operations,
// checking every result against a map model, with structural invariants and
// exact space accounting after every step that returns a tree.  Run long
// with `go test -run '^$' -fuzz FuzzTreeOps ./internal/ftree`.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 10, 2, 0, 10, 3, 0, 30})
	f.Add([]byte{1, 0, 0, 0, 1, 1, 1, 2, 2, 2})
	f.Add([]byte{2, 255, 254, 253, 252, 251, 250})
	// Ascending and scattered bulk loads that cross several leaf
	// boundaries, then every other op once against them.
	var bulk []byte
	for round := byte(0); round < 4; round++ {
		bulk = append(bulk, 6, 60) // MultiInsert of 60 keys
		for i := byte(0); i < 60; i++ {
			bulk = append(bulk, round*(i%3), i*4+round)
		}
	}
	for op := byte(0); op < 14; op++ {
		bulk = append(bulk, op, 0, 100+op, 7, 9)
	}
	// Batch lookups: on the nil tree, and over several leaves in runs
	// shorter and longer than findWidth with every third key a repeat.
	f.Add([]byte{0, 13, 5, 1, 0, 7, 0, 0, 9})
	for _, n := range []byte{1, findWidth - 1, findWidth + 1, 39} {
		look := append(append([]byte{1}, bulk[:4*122]...), 13, n)
		for i := byte(0); i < n; i++ {
			if look = append(look, i%3); i == 0 || i%3 != 0 {
				look = append(look, i, 4*i) // a repeat reads no key
			}
		}
		f.Add(look)
	}
	for cfg := byte(0); cfg < 32; cfg++ {
		f.Add(append([]byte{cfg}, bulk...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte { // the next input byte, 0 once exhausted
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		u16 := func() int { return int(binary.BigEndian.Uint16([]byte{next(), next()})) }
		// A key is clustered, 0 to 0x7fff, or with the top bit set spread:
		// multiples of 1<<12 on both sides of zero, sixteen to a narrow
		// leaf's reach.  Leaves of both kinds then mix keys of both, and an
		// insert, delete or split moves a leaf's span across 1<<16 either
		// way: the layout changes under every write.
		key := func() int64 {
			u := u16()
			if u >= 0x8000 {
				return int64(u-0xc000) << 12
			}
			return int64(u)
		}
		sum := func(a, b int64) int64 { return a + b }
		// The first byte picks the allocator and the decompose path, so both
		// sides of every steal-or-retain branch see the same op sequences,
		// and a grain small enough that these batches fork: at an internal
		// node and where a batch larger than a leaf cuts one run in two.
		// The fourth bit sends the point writes, and the Release of every
		// tree they or the bulk operations made, through an arena-bound
		// view, so "allocated = reachable" sums an arena's tally with the
		// root's counters, units allocated on one side and freed on the
		// other included.  The fifth bit orders the keys by their own <
		// (NewNatural) instead of by IntCmp, so every op sequence runs on
		// both search bodies and both sorts.
		cfg := next()
		s := &fuzzTrees{t: t, o: intOps(0), ref: map[int64]int64{}, oref: map[int64]int64{}}
		if cfg&16 != 0 {
			s.o, _ = NewNatural[int64, int64, int64](SumAug[int64](), 0)
		}
		o := s.o
		o.Recycle, o.NoSteal = cfg&1 != 0, cfg&2 != 0
		if cfg&4 != 0 {
			o.Grain = 4
		}
		s.po = o
		if cfg&8 != 0 {
			s.po = o.Bound(o.NewArena())
		}
		po := s.po
		for step := int64(1); len(data) > 0; step++ {
			switch next() % 14 {
			case 0, 1: // insert
				k := key()
				s.ref[k] = step
				s.set(po.Insert(s.root, k, step))
			case 2: // delete by key
				k := key()
				delete(s.ref, k)
				s.set(po.Delete(s.root, k))
			case 3: // snapshot
				if len(s.snaps) < 8 {
					cp := make(map[int64]int64, len(s.ref))
					for k, v := range s.ref {
						cp[k] = v
					}
					s.snaps, s.srefs = append(s.snaps, o.share(s.root)), append(s.srefs, cp)
				}
			case 4: // find must agree with the model
				k := key()
				got, ok := o.Find(s.root, k)
				want, wantOK := s.ref[k]
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("find(%d) = %d,%v want %d,%v", k, got, ok, want, wantOK)
				}
			case 5: // grow the second tree
				k := key()
				s.oref[k] = -step
				no := o.Insert(s.other, k, -step)
				o.Release(s.other)
				s.other = no
			case 6: // MultiInsert, combining with the stored value
				batch := make([]Entry[int64, int64], next()%80)
				for i := range batch {
					batch[i] = Entry[int64, int64]{key(), step}
					s.ref[batch[i].Key] += step
				}
				s.set(o.MultiInsert(s.root, batch, sum))
			case 7: // MultiDelete
				ks := make([]int64, next()%80)
				for i := range ks {
					ks[i] = key()
					delete(s.ref, ks[i])
				}
				s.set(o.MultiDelete(s.root, ks))
			case 8: // a set operation against the second tree
				mode := next() % 5
				comb := sum
				if mode%2 == 1 {
					comb = nil
				}
				switch mode {
				case 0, 1: // union: summed, or the second tree's value wins
					for k, v := range s.oref {
						if old, ok := s.ref[k]; ok && comb != nil {
							v += old
						}
						s.ref[k] = v
					}
					s.set(o.Union(s.root, s.other, comb))
				case 2, 3: // intersection: summed, or the first tree's value wins
					for k, v := range s.ref {
						if ov, ok := s.oref[k]; !ok {
							delete(s.ref, k)
						} else if comb != nil {
							s.ref[k] = v + ov
						}
					}
					s.set(o.Intersect(s.root, s.other, comb))
				default:
					for k := range s.oref {
						delete(s.ref, k)
					}
					s.set(o.Difference(s.root, s.other))
				}
			case 9: // split at a key and join the halves back
				k := key()
				l, r, found, fv := o.Split(s.root, k)
				if want, ok := s.ref[k]; found != ok || (found && fv != want) {
					t.Fatalf("split(%d) found %d,%v want %d,%v", k, fv, found, want, ok)
				}
				for _, half := range []*Node[int64, int64, int64]{l, r} {
					if err := o.Validate(half, augEq); err != nil {
						t.Fatalf("split(%d): %v", k, err)
					}
				}
				if found {
					s.set(o.Join(l, k, fv, r))
				} else {
					s.set(o.Join2(l, r))
				}
			case 10: // seek and walk the iterator against the sorted model
				k, steps := key(), int(next())
				ks := s.keys()
				i, _ := slices.BinarySearch(ks, k)
				it := o.NewIterAt(s.root, k)
				for ; steps >= 0; steps, i = steps-1, i+1 {
					if i >= len(ks) {
						if it.Valid() {
							t.Fatalf("seek(%d): iterator at %d past the model's end", k, it.Key())
						}
						break
					}
					if !it.Valid() || it.Key() != ks[i] || it.Val() != s.ref[ks[i]] {
						t.Fatalf("seek(%d) step %d: iterator valid %v, want key %d", k, i, it.Valid(), ks[i])
					}
					it.Next()
				}
			case 11: // order statistics and the augmented range
				lo, hi := key(), key()
				ks := s.keys()
				rank, _ := slices.BinarySearch(ks, lo)
				if got := o.Rank(s.root, lo); got != int64(rank) {
					t.Fatalf("rank(%d) = %d, want %d", lo, got, rank)
				}
				e, ok := o.Select(s.root, int64(rank))
				if ok != (rank < len(ks)) || (ok && (e.Key != ks[rank] || e.Val != s.ref[e.Key])) {
					t.Fatalf("select(%d) = %v,%v", rank, e, ok)
				}
				var want int64
				for _, k := range ks {
					if lo <= k && k <= hi {
						want += s.ref[k]
					}
				}
				if got := o.AugRange(s.root, lo, hi); got != want {
					t.Fatalf("AugRange(%d,%d) = %d, want %d", lo, hi, got, want)
				}
			case 12: // delete by rank: always hits, so leaves shrink and merge
				if ks := s.keys(); len(ks) > 0 {
					k := ks[u16()%len(ks)]
					delete(s.ref, k)
					s.set(po.Delete(s.root, k))
				}
			case 13: // a batch lookup must agree with per-key Find
				present := s.keys()
				ks := make([]int64, next()%40)
				for i := range ks {
					switch pick := next() % 3; {
					case pick == 0 && i > 0:
						ks[i] = ks[i-1]
					case pick == 1 && len(present) > 0:
						ks[i] = present[u16()%len(present)]
					default:
						ks[i] = key()
					}
				}
				// Stale results from an earlier batch must not survive.
				vals, found := make([]int64, len(ks)), make([]bool, len(ks))
				for i := range ks {
					vals[i], found[i] = -1, i%2 == 0
				}
				o.FindBatch(s.root, ks, vals, found)
				for i, k := range ks {
					want, wantOK := o.Find(s.root, k)
					if ref, refOK := s.ref[k]; want != ref || wantOK != refOK {
						t.Fatalf("find(%d) = %d,%v want %d,%v", k, want, wantOK, ref, refOK)
					}
					if vals[i] != want || found[i] != wantOK {
						t.Fatalf("batch of %d: key %d (#%d) = %d,%v want %d,%v", len(ks), k, i, vals[i], found[i], want, wantOK)
					}
				}
			}
		}
		for i, snap := range s.snaps {
			if o.Size(snap) != int64(len(s.srefs[i])) {
				t.Fatalf("snapshot %d: size %d, want %d", i, o.Size(snap), len(s.srefs[i]))
			}
			for k, v := range s.srefs[i] {
				if got, ok := o.Find(snap, k); !ok || got != v {
					t.Fatalf("snapshot %d: find(%d) = %d,%v want %d", i, k, got, ok, v)
				}
			}
			o.Release(snap)
		}
		o.Release(s.root)
		o.Release(s.other)
		if o.Live() != 0 {
			t.Fatalf("leaked %d nodes", o.Live())
		}
	})
}

// stagedMerge is mergeRun as it was before it wrote into the new leaf
// directly: every entry staged through a stack array and handed to build,
// the live run read as entries.  FuzzLeafKernels holds mergeRun to it.
func stagedMerge(o *Ops[int64, int64, int64], run, batch []Entry[int64, int64], comb func(old, new int64) int64) *Node[int64, int64, int64] {
	var out [2 * leafMax]Entry[int64, int64]
	copyRun := func(dst, src []Entry[int64, int64]) int {
		n := copy(dst, src)
		o.retainRun(dst[:n])
		return n
	}
	n := 0
	for _, e := range batch {
		i, j := o.span(run, e.Key)
		n += copyRun(out[n:], run[:i])
		if i < j {
			e = o.over(run[i].Val, e, comb)
		}
		out[n] = e
		n++
		run = run[j:]
	}
	n += copyRun(out[n:], run)
	return o.build(out[:n])
}

// unbulked hides an augmenter's FoldRun, leaving the Single/Combine fold.
type unbulked struct{ Augmenter[int64, int64, int64] }

// FuzzLeafKernels holds each leaf kernel to the body it replaced, on a
// sorted run and a sorted batch of up to a leaf's worth each decoded from
// the input, their keys clustered or spread: the direct-compare search to
// the search through Cmp (and both to a linear scan) for every probe around
// the run's keys, also on a slice longer than a leaf, and the narrow search
// over the keys' offsets (kernels.go) to the same, with probes at both
// ends of int64 and of the offsets' reach; mergeRun, on a live leaf of
// either layout, to stagedMerge entry for entry and in the augmentation,
// with and without a combine function, under both orderings and with every
// value reference counted — whatever a merge retained is released exactly
// once, and the live run keeps exactly its own; FoldRun to the
// Single/Combine fold for SumAug and MaxAug, the empty run included.
func FuzzLeafKernels(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 1, 0, 5, 5})                            // one entry replaced
	f.Add([]byte{3, 32, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9})      // a full run, one new key: overflow
	f.Add([]byte{2, 7, 32, 200, 100, 50, 25, 12, 6, 3, 1})  // a short run under a full batch
	f.Add([]byte{7, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})  // the batch is the run: all replaces
	f.Add([]byte{4, 20, 9, 255, 128, 127, 129, 1, 254, 64}) // values at both ends of int64, spread keys
	f.Add([]byte{0x25, 40, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8})   // spread keys: a wide run, a narrow batch
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cfg := next()
		// Ascending keys from small steps, so run and batch share many —
		// or, with cfg&4, from steps of 1 500 to 6 000, so a run of more
		// than a dozen keys spans past a narrow leaf's reach; values carry
		// the byte in their top bits, so folds see both signs and
		// magnitudes beyond MaxAug's Zero.
		step := int64(1)
		if cfg&4 != 0 {
			step = 1500
		}
		ascending := func(n int, key, id int64) []Entry[int64, int64] {
			es := make([]Entry[int64, int64], n)
			for i := range es {
				b := next()
				key += (1 + int64(b%4)) * step
				id++
				es[i] = Entry[int64, int64]{Key: key, Val: int64(int8(b))<<56 | id}
			}
			return es
		}
		run := ascending(int(next())%(leafMax+1), -40, 0)
		batch := ascending(int(next())%(leafMax+1), -42+int64(cfg>>4), 1000)
		long := ascending(leafMax+1+int(next()), -300, 2000)

		gen := intOps(0)
		nat, _ := NewNatural[int64, int64, int64](SumAug[int64](), 0)

		// search, and the narrow search wherever the keys fit one
		for _, sorted := range [][]Entry[int64, int64]{run, batch, long, nil} {
			var base int64
			var off []uint16
			if len(sorted) > 0 {
				base = sorted[0].Key
				if sorted[len(sorted)-1].Key-base < 1<<16 {
					for _, e := range sorted {
						off = append(off, uint16(e.Key-base))
					}
				}
			}
			// Every key and its neighbours within two — with clustered
			// keys, every probe between the first and the last.
			probes := []int64{math.MinInt64, math.MaxInt64, base - 2, base - 1, base, base + 1<<16 - 1, base + 1<<16}
			for _, e := range sorted {
				for k := e.Key - 2; k <= e.Key+2; k++ {
					probes = append(probes, k)
				}
			}
			for _, k := range probes {
				want := 0
				for want < len(sorted) && sorted[want].Key < k {
					want++
				}
				wantOK := want < len(sorted) && sorted[want].Key == k
				gi, gok := gen.searchCmp(sorted, k)
				ni, nok := nat.search(sorted, k)
				if gi != want || gok != wantOK || ni != want || nok != wantOK {
					t.Fatalf("search(%d keys, %d): by Cmp %d,%v, direct %d,%v, want %d,%v", len(sorted), k, gi, gok, ni, nok, want, wantOK)
				}
				if off != nil || len(sorted) == 0 {
					if ri, rok := nat.typed.searchNarrow(base, off, k); ri != want || rok != wantOK {
						t.Fatalf("narrow search(%d keys from %d, %d) = %d,%v, want %d,%v", len(off), base, k, ri, rok, want, wantOK)
					}
				}
			}
		}

		// FoldRun
		for name, aug := range map[string]Augmenter[int64, int64, int64]{"sum": SumAug[int64](), "max": MaxAug[int64]()} {
			bulk, plain := New(IntCmp[int64], aug, 0), New[int64, int64, int64](IntCmp[int64], unbulked{aug}, 0)
			if bulk.bulk == nil || plain.bulk != nil {
				t.Fatalf("%s: FoldRun seen %v, hidden %v", name, bulk.bulk != nil, plain.bulk == nil)
			}
			for _, r := range [][]Entry[int64, int64]{run, batch, long[:leafMax], nil} {
				if got, want := bulk.foldRun(r), plain.foldRun(r); got != want {
					t.Fatalf("%s: FoldRun of %d entries = %d, the fold says %d", name, len(r), got, want)
				}
			}
		}

		// mergeRun
		if len(run) == 0 || len(batch) == 0 {
			return
		}
		refs := map[int64]int{} // owned references per value
		retain := func(v int64) int64 { refs[v]++; return v }
		release := func(v int64) {
			if refs[v]--; refs[v] < 0 {
				t.Fatalf("value %d released more often than retained", v)
			}
		}
		var comb func(old, new int64) int64
		if cfg&1 != 0 {
			comb = func(old, new int64) int64 { // not commutative; consumes both
				release(old)
				release(new)
				return retain(old*31 + new)
			}
		}
		owned := map[int64]int{} // what must be left when everything else is released
		for _, e := range run {
			retain(e.Val) // the live run's own
			owned[e.Val] = 1
		}
		merged := func(o *Ops[int64, int64, int64], merge func(o *Ops[int64, int64, int64], batch []Entry[int64, int64]) *Node[int64, int64, int64]) ([]Entry[int64, int64], int64) {
			o.RetainVal, o.ReleaseVal = retain, release
			o.Recycle = cfg&2 != 0
			mine := slices.Clone(batch)
			for _, e := range mine {
				retain(e.Val) // owned, for the merge to consume
			}
			nd := merge(o, mine)
			if err := o.Validate(nd, augEq); err != nil {
				t.Fatal(err)
			}
			es, aug := o.Entries(nd), nd.Aug()
			o.Release(nd)
			if o.Live() != 0 {
				t.Fatalf("%d units live after the release", o.Live())
			}
			for v, n := range refs {
				if n != owned[v] {
					t.Fatalf("value %d holds %d references after the release, want %d", v, n, owned[v])
				}
			}
			return es, aug
		}
		want, wantAug := merged(gen, func(o *Ops[int64, int64, int64], mine []Entry[int64, int64]) *Node[int64, int64, int64] {
			return stagedMerge(o, run, mine, comb)
		})
		for name, o := range map[string]*Ops[int64, int64, int64]{"by Cmp": intOps(0), "direct": nat} {
			got, aug := merged(o, func(o *Ops[int64, int64, int64], mine []Entry[int64, int64]) *Node[int64, int64, int64] {
				// The live run as a leaf, holding references of its own.
				own := slices.Clone(run)
				for _, e := range own {
					retain(e.Val)
				}
				lf := o.leafOf(own)
				if err := o.Validate(lf, augEq); err != nil {
					t.Fatal(err)
				}
				nd := o.mergeRun(lf, 0, len(own), mine, comb)
				o.Release(lf)
				return nd
			})
			if !slices.Equal(got, want) || aug != wantAug {
				t.Fatalf("%s: mergeRun of %d into %d = %v (aug %d)\nstaged: %v (aug %d)", name, len(batch), len(run), got, aug, want, wantAug)
			}
		}
	})
}

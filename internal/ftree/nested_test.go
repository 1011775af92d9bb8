package ftree

import (
	"math/rand"
	"testing"
)

// inner and outer tree types for the nested-map tests: outer maps a key to
// an inner tree (the paper's inverted-index shape, §7.2).
type innerNode = Node[int64, int64, int64]

func nestedOps() (inner *Ops[int64, int64, int64], outer *Ops[int64, *innerNode, struct{}]) {
	inner = New[int64, int64, int64](IntCmp[int64], MaxAug[int64](), 0)
	outer = New[int64, *innerNode, struct{}](IntCmp[int64], NoAug[int64, *innerNode](), 0)
	outer.RetainVal = func(t *innerNode) *innerNode {
		if t == nil {
			return nil
		}
		return inner.share(t)
	}
	outer.ReleaseVal = func(t *innerNode) { inner.Release(t) }
	return inner, outer
}

// TestNestedInsertRelease: inserting inner trees as outer values and
// releasing outer versions must free every inner node exactly once.
func TestNestedInsertRelease(t *testing.T) {
	inner, outer := nestedOps()
	var root *Node[int64, *innerNode, struct{}]
	for term := int64(0); term < 50; term++ {
		var p *innerNode
		for d := int64(0); d < 20; d++ {
			np := inner.Insert(p, d, term*100+d)
			inner.Release(p)
			p = np
		}
		nr := outer.Insert(root, term, p) // outer consumes p's token
		outer.Release(root)
		root = nr
	}
	if inner.Live() == 0 {
		t.Fatal("no inner nodes live?")
	}
	// Read through: posting for term 7, doc 3.
	p, ok := outer.Find(root, 7)
	if !ok {
		t.Fatal("term 7 missing")
	}
	if w, ok := inner.Find(p, 3); !ok || w != 703 {
		t.Fatalf("posting weight = %d,%v", w, ok)
	}
	outer.Release(root)
	if outer.Live() != 0 {
		t.Fatalf("outer leaked %d nodes", outer.Live())
	}
	if inner.Live() != 0 {
		t.Fatalf("inner leaked %d nodes", inner.Live())
	}
}

// TestNestedUnionCombine models document ingestion: union of outer trees
// combining posting lists by inner union — then checks exact accounting on
// both levels after all versions are dropped.
func TestNestedUnionCombine(t *testing.T) {
	inner, outer := nestedOps()
	combine := func(a, b *innerNode) *innerNode {
		u := inner.Union(a, b, nil)
		inner.Release(a)
		inner.Release(b)
		return u
	}
	rng := rand.New(rand.NewSource(20))
	var corpus *Node[int64, *innerNode, struct{}]
	ref := map[int64]map[int64]int64{}
	for doc := int64(0); doc < 40; doc++ {
		// Build the document's delta: term → single-doc posting.
		var batch []Entry[int64, *innerNode]
		for i := 0; i < 15; i++ {
			term := rng.Int63n(30)
			w := rng.Int63n(1000)
			batch = append(batch, Entry[int64, *innerNode]{
				Key: term,
				Val: inner.Insert(nil, doc, w),
			})
			if ref[term] == nil {
				ref[term] = map[int64]int64{}
			}
			ref[term][doc] = w
		}
		next := outer.MultiInsert(corpus, batch, combine)
		outer.Release(corpus)
		corpus = next
	}
	// Verify a handful of postings against the reference.
	for term, docs := range ref {
		p, ok := outer.Find(corpus, term)
		if !ok {
			t.Fatalf("term %d missing", term)
		}
		if inner.Size(p) != int64(len(docs)) {
			t.Fatalf("term %d posting size %d, want %d", term, inner.Size(p), len(docs))
		}
		for doc, w := range docs {
			if got, ok := inner.Find(p, doc); !ok || got != w {
				t.Fatalf("term %d doc %d = %d,%v want %d", term, doc, got, ok, w)
			}
		}
	}
	outer.Release(corpus)
	if outer.Live() != 0 || inner.Live() != 0 {
		t.Fatalf("leak: outer %d inner %d", outer.Live(), inner.Live())
	}
}

// TestNestedSnapshotSharing: two outer versions sharing posting lists keep
// the inner trees alive until both versions die.
func TestNestedSnapshotSharing(t *testing.T) {
	inner, outer := nestedOps()
	p := inner.Insert(nil, 1, 1)
	v1 := outer.Insert(nil, 10, p)
	v2 := outer.Insert(v1, 20, inner.Insert(nil, 2, 2)) // v2 shares term 10's posting
	outer.Release(v1)
	// v1 is gone but v2 still references posting p through the shared node.
	got, ok := outer.Find(v2, 10)
	if !ok {
		t.Fatal("term 10 missing from v2")
	}
	if w, ok := inner.Find(got, 1); !ok || w != 1 {
		t.Fatalf("posting read failed: %d,%v", w, ok)
	}
	outer.Release(v2)
	if outer.Live() != 0 || inner.Live() != 0 {
		t.Fatalf("leak: outer %d inner %d", outer.Live(), inner.Live())
	}
}

// TestNestedDeleteReleasesPostings: deleting an outer key must free its
// posting tree once the last version referencing it dies.
func TestNestedDeleteReleasesPostings(t *testing.T) {
	inner, outer := nestedOps()
	v1 := outer.Insert(nil, 1, inner.Insert(nil, 5, 50))
	v2 := outer.Delete(v1, 1)
	outer.Release(v1) // posting must die with v1: v2 does not reference it
	if inner.Live() != 0 {
		t.Fatalf("posting survived deletion: %d inner nodes", inner.Live())
	}
	outer.Release(v2)
	if outer.Live() != 0 {
		t.Fatalf("outer leaked %d", outer.Live())
	}
}

// innerLive counts the distinct inner trees the given outer versions
// reference.  Every inner tree here is a single-entry leaf — one unit — so
// this is what inner.Live() must read.
func innerLive(outer *Ops[int64, *innerNode, struct{}], roots ...*Node[int64, *innerNode, struct{}]) int64 {
	seen := map[*innerNode]struct{}{}
	for _, r := range roots {
		outer.ForEach(r, func(_ int64, p *innerNode) { seen[p] = struct{}{} })
	}
	return int64(len(seen))
}

// TestNestedLeafOwnership: a leaf whose run holds refcounted inner trees is
// copied (replace), split (overflow), merged (delete, union), widened and
// narrowed (an insert far away and its delete) and freed, with and without
// the steal path, with the outer keys ordered by a Cmp (wide leaves) and by
// their own order (clustered keys: narrow leaves); at every stage the inner
// family's live space is exactly the inner trees some live outer version
// references.
func TestNestedLeafOwnership(t *testing.T) {
	for _, natural := range []bool{false, true} {
		for _, noSteal := range []bool{false, true} {
			inner, outer := nestedOps()
			if natural {
				nat, _ := NewNatural[int64, *innerNode, struct{}](NoAug[int64, *innerNode](), 0)
				nat.RetainVal, nat.ReleaseVal = outer.RetainVal, outer.ReleaseVal
				outer = nat
			}
			outer.NoSteal = noSteal
			posting := func(k int64) *innerNode { return inner.Insert(nil, k, k) }
			var live []*Node[int64, *innerNode, struct{}]
			check := func(what string) {
				t.Helper()
				if got, want := inner.Live(), innerLive(outer, live...); got != want {
					t.Fatalf("natural=%v noSteal=%v, %s: inner live %d, want %d", natural, noSteal, what, got, want)
				}
				if got, want := outer.Live(), outer.ReachableNodes(live...); got != want {
					t.Fatalf("natural=%v noSteal=%v, %s: outer live %d, want %d", natural, noSteal, what, got, want)
				}
				if err := outer.Validate(live[len(live)-1], nil); err != nil {
					t.Fatalf("natural=%v noSteal=%v, %s: %v", natural, noSteal, what, err)
				}
			}
			// One full leaf.
			es := make([]Entry[int64, *innerNode], leafMax)
			for i := range es {
				es[i] = Entry[int64, *innerNode]{Key: int64(i) * 2, Val: posting(int64(i))}
			}
			v1 := outer.Build(es)
			live = append(live, v1)
			if v1.narrow != natural {
				t.Fatalf("natural=%v: a leaf of keys 0..%d is narrow: %v", natural, 2*(leafMax-1), v1.narrow)
			}
			check("build")
			// Copy: a replace retains the other leafMax−1 postings for the new leaf.
			v2 := outer.Insert(v1, 10, posting(100))
			live = append(live, v2)
			check("replace")
			// Split: an overflowing insert cuts the run in two around a middle entry.
			v3 := outer.Insert(v2, 11, posting(101))
			live = append(live, v3)
			check("overflow")
			// Merge: deleting it folds two leaves and the middle entry into one.
			v4 := outer.Delete(v3, 11)
			live = append(live, v4)
			check("fold")
			// Merge two runs: union with a second leaf, combining shared keys by
			// keeping the left posting and releasing the right one.
			other := outer.Build([]Entry[int64, *innerNode]{{Key: 10, Val: posting(200)}, {Key: 13, Val: posting(201)}})
			live = append(live, other)
			v5 := outer.Union(v4, other, func(a, b *innerNode) *innerNode { inner.Release(b); return a })
			live = append(live, v5)
			check("union")
			v6 := outer.Difference(v5, other)
			live = append(live, v6)
			check("difference")
			// Widen and narrow: a key past a narrow leaf's reach, then its delete.
			v7 := outer.Insert(v6, 1<<20, posting(102))
			live = append(live, v7)
			check("widen")
			v8 := outer.Delete(v7, 1<<20)
			live = append(live, v8)
			check("narrow")
			if v8.narrow != natural || v7.narrow {
				t.Fatalf("natural=%v: narrow after widening %v, after narrowing %v", natural, v7.narrow, v8.narrow)
			}
			// Free in an order that leaves shared postings alive to the end.
			for len(live) > 0 {
				outer.Release(live[0])
				live = live[1:]
				if len(live) > 0 {
					check("release")
				}
			}
			if outer.Live() != 0 || inner.Live() != 0 {
				t.Fatalf("natural=%v noSteal=%v: leak: outer %d inner %d", natural, noSteal, outer.Live(), inner.Live())
			}
		}
	}
}

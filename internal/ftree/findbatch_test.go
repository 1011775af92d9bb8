package ftree

import (
	"fmt"
	"math/rand"
	"testing"
)

// churnedTree builds n keys in bulk and then replaces every one of them in
// random order, so the nodes a lookup visits lie scattered over the heap as
// they do under a live workload, not in the order Build laid them out.
func churnedTree(o *Ops[int64, int64, int64], n int) *Node[int64, int64, int64] {
	es := make([]Entry[int64, int64], n)
	for i := range es {
		es[i] = Entry[int64, int64]{Key: int64(i), Val: int64(i)}
	}
	root := o.MultiInsert(nil, es, nil)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		next := o.Insert(root, int64(i), int64(i))
		o.Release(root)
		root = next
	}
	return root
}

// BenchmarkFindBatch prices one lookup on a tree larger than the cache, with
// uniform keys: back-to-back Finds against FindBatch over short runs (what a
// 95 % GET pipeline hands one shard between two SETs) and long ones.  Each
// runs through Cmp and, as natural-*, through the leaf kernels (NewNatural,
// what OpenDB builds without a Cmp).
func BenchmarkFindBatch(b *testing.B) {
	const n = 500_000
	natural, _ := NewNatural[int64, int64, int64](SumAug[int64](), 0)
	for _, ops := range []struct {
		prefix string
		o      *Ops[int64, int64, int64]
	}{{"", intOps(0)}, {"natural-", natural}} {
		o := ops.o
		root := churnedTree(o, n)
		rng := rand.New(rand.NewSource(2))
		keys := make([]int64, 1<<16)
		for i := range keys {
			keys[i] = rng.Int63n(n)
		}
		vals, found := make([]int64, 64), make([]bool, 64)
		b.Run(ops.prefix+"find", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vals[0], found[0] = o.Find(root, keys[i%len(keys)])
			}
		})
		for _, run := range []int{10, 64} {
			b.Run(fmt.Sprintf("%sbatch%d", ops.prefix, run), func(b *testing.B) {
				for i := 0; i < b.N; i += run {
					at := i % (len(keys) - run)
					o.FindBatch(root, keys[at:at+run], vals, found)
				}
			})
		}
		o.Release(root)
	}
}

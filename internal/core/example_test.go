package core_test

import (
	"fmt"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// ExampleNewMap shows the whole transactional lifecycle: an atomic batch
// commit, a snapshot read with an O(log n) augmented range query, and the
// precise-GC guarantee that closing the map frees every node.
func ExampleNewMap() {
	ops := ftree.New(ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: 2}, ops, nil)
	if err != nil {
		panic(err)
	}

	m.Update(0, func(tx *core.Txn[int64, int64, int64]) {
		for i := int64(1); i <= 10; i++ {
			tx.Insert(i, i*i)
		}
	})

	m.Read(1, func(s core.Snapshot[int64, int64, int64]) {
		v, _ := s.Get(4)
		fmt.Println("4² =", v)
		fmt.Println("Σ k² =", s.AugRange(1, 10))
	})

	m.Close()
	fmt.Println("leaked nodes:", ops.Live())
	// Output:
	// 4² = 16
	// Σ k² = 385
	// leaked nodes: 0
}

// ExampleMap_Update shows read-your-writes inside a transaction and
// conflict-free retries reported by Update.
func ExampleMap_Update() {
	ops := ftree.New(ftree.IntCmp[int64], ftree.NoAug[int64, string](), 0)
	m, _ := core.NewMap(core.Config{Procs: 1}, ops, nil)

	retries := m.Update(0, func(tx *core.Txn[int64, string, struct{}]) {
		tx.Insert(1, "draft")
		v, _ := tx.Get(1) // a transaction sees its own writes
		tx.Insert(1, v+"-final")
	})
	fmt.Println("retries:", retries)

	m.Read(0, func(s core.Snapshot[int64, string, struct{}]) {
		v, _ := s.Get(1)
		fmt.Println(v)
	})
	m.Close()
	// Output:
	// retries: 0
	// draft-final
}

// ExampleSnapshot_Range shows ordered-map queries on one snapshot.
func ExampleSnapshot_Range() {
	ops := ftree.New(ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	m, _ := core.NewMap(core.Config{Procs: 1}, ops, []ftree.Entry[int64, int64]{
		{Key: 10, Val: 1}, {Key: 20, Val: 2}, {Key: 30, Val: 3}, {Key: 40, Val: 4},
	})
	m.Read(0, func(s core.Snapshot[int64, int64, int64]) {
		for _, e := range s.Range(15, 35) {
			fmt.Println(e.Key, e.Val)
		}
		entry, _ := s.Select(0) // rank queries via subtree sizes
		fmt.Println("min key:", entry.Key)
	})
	m.Close()
	// Output:
	// 20 2
	// 30 3
	// min key: 10
}

package mvgc_test

import (
	"fmt"

	"mvgc"
)

// ExampleNewMap shows the whole transactional lifecycle: an atomic batch
// commit, a snapshot read with an O(log n) augmented range query, and the
// precise-GC guarantee that closing the map frees every node.
func ExampleNewMap() {
	ops := mvgc.NewOps(mvgc.IntCmp[int64], mvgc.SumAug[int64](), 0)
	m, err := mvgc.NewMap(mvgc.Config{Algorithm: "pswf", Procs: 2}, ops, nil)
	if err != nil {
		panic(err)
	}

	m.Update(0, func(tx *mvgc.Txn[int64, int64, int64]) {
		for i := int64(1); i <= 10; i++ {
			tx.Insert(i, i*i)
		}
	})

	m.Read(1, func(s mvgc.Snapshot[int64, int64, int64]) {
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
	ops := mvgc.NewOps(mvgc.IntCmp[int64], mvgc.NoAug[int64, string](), 0)
	m, _ := mvgc.NewMap(mvgc.Config{Procs: 1}, ops, nil)

	retries := m.Update(0, func(tx *mvgc.Txn[int64, string, struct{}]) {
		tx.Insert(1, "draft")
		v, _ := tx.Get(1) // a transaction sees its own writes
		tx.Insert(1, v+"-final")
	})
	fmt.Println("retries:", retries)

	m.Read(0, func(s mvgc.Snapshot[int64, string, struct{}]) {
		v, _ := s.Get(1)
		fmt.Println(v)
	})
	m.Close()
	// Output:
	// retries: 0
	// draft-final
}

// ExampleOpenPlainDB shows the sharded, pid-free front door: transactions
// run from any goroutine with no process-id discipline, keys are
// hash-partitioned across independent map instances, and cross-shard reads
// merge into global key order.
func ExampleOpenPlainDB() {
	db, err := mvgc.OpenPlainDB[uint64, uint64](mvgc.DBOptions[uint64]{Shards: 4, Procs: 2}, nil)
	if err != nil {
		panic(err)
	}

	db.UpdateAtomic(func(tx *mvgc.DBTxn[uint64, uint64, struct{}]) {
		for i := uint64(1); i <= 5; i++ {
			tx.Insert(i, i*100) // keys land on different shards
		}
	})

	db.View(func(s mvgc.DBSnapshot[uint64, uint64, struct{}]) {
		v, _ := s.Get(3)
		fmt.Println("3 →", v)
		s.ForEach(func(k, v uint64) { fmt.Println(k, v) }) // global key order
	})

	db.Close()
	fmt.Println("leaked nodes:", db.Live())
	// Output:
	// 3 → 300
	// 1 100
	// 2 200
	// 3 300
	// 4 400
	// 5 500
	// leaked nodes: 0
}

// ExampleSnapshot_Range shows ordered-map queries on one snapshot.
func ExampleSnapshot_Range() {
	ops := mvgc.NewOps(mvgc.IntCmp[int64], mvgc.SumAug[int64](), 0)
	m, _ := mvgc.NewMap(mvgc.Config{Procs: 1}, ops, []mvgc.Entry[int64, int64]{
		{Key: 10, Val: 1}, {Key: 20, Val: 2}, {Key: 30, Val: 3}, {Key: 40, Val: 4},
	})
	m.Read(0, func(s mvgc.Snapshot[int64, int64, int64]) {
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

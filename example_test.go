package mvgc_test

import (
	"fmt"

	"mvgc"
)

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
		s.ForEachCond(func(k, v uint64) bool { fmt.Println(k, v); return true }) // global key order
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

package experiments

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mvgc/internal/ftree"
	"mvgc/internal/shard"
	"mvgc/internal/ycsb"
)

// TxnConfig parameterizes the multi-key transfer workload: every
// transaction debits one account and credits KeysPerTxn-1 others, so the
// account-balance sum is invariant and the benchmark exercises exactly the
// cross-shard commit path the GSN protocol protects.
type TxnConfig struct {
	// Accounts is the account key-space size.
	Accounts uint64
	// Threads is the number of transfer threads.
	Threads int
	// Shards is the shard count S.
	Shards int
	// KeysPerTxn is the number of keys each transfer touches (>= 2).
	KeysPerTxn int
	// Duration is the measured window per cell.
	Duration time.Duration
}

// DefaultTxn returns a host-scaled configuration.
func DefaultTxn() TxnConfig {
	return TxnConfig{
		Accounts:   1_000_000,
		Threads:    runtime.GOMAXPROCS(0),
		Shards:     8,
		KeysPerTxn: 2,
		Duration:   3 * time.Second,
	}
}

// TxnModes names the commit paths a transfer cell measures:
//   - txn-atomic commits all touched shards under one GSN (UpdateAtomic)
//     with commutative InsertWith deltas;
//   - txn-keys is the multi-key CAS (UpdateAtomicKeys): the footprint's
//     writer slots are held from before the balance reads until the
//     absolute values are installed — two-phase locking on the slots, the
//     price of serializability against every writer.
var TxnModes = []string{"txn-atomic", "txn-keys"}

// RunTxnCell measures transfer throughput (million transactions per second)
// in one of TxnModes.
func RunTxnCell(cfg TxnConfig, mode string) float64 {
	initial := make([]ftree.Entry[uint64, int64], cfg.Accounts)
	for i := range initial {
		initial[i] = ftree.Entry[uint64, int64]{Key: uint64(i), Val: 1000}
	}
	sm, err := shard.New(
		shard.Config[uint64]{Shards: cfg.Shards, Procs: cfg.Threads + 1, Hash: ycsb.Mix64},
		func() *ftree.Ops[uint64, int64, struct{}] {
			return ftree.New[uint64, int64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, int64](), 0)
		},
		initial,
	)
	if err != nil {
		panic(err)
	}
	add := func(old, delta int64) int64 { return old + delta }
	mops := run(cfg.Threads, cfg.Duration, func(worker int, stop *atomic.Bool, c *counter) {
		rng := ycsb.NewSplitMix64(uint64(worker)*0x9e3779b9 + 7)
		keys := make([]uint64, cfg.KeysPerTxn)
		for !stop.Load() {
			keys[0] = rng.Intn(cfg.Accounts)
			for i := 1; i < len(keys); i++ {
				// Distinct keys: a transfer must not credit its own debit.
				for {
					keys[i] = rng.Intn(cfg.Accounts)
					if keys[i] != keys[0] {
						break
					}
				}
			}
			switch mode {
			case "txn-keys":
				// The CAS transfer shape: read every balance, write absolute
				// new balances.  Correctness rests entirely on the reads
				// holding until the install — exactly what the cell prices.
				sm.UpdateAtomicKeys(keys, func(t *shard.Txn[uint64, int64, struct{}]) {
					amt := int64(len(keys) - 1)
					bal, _ := t.Get(keys[0])
					if bal < amt {
						return // overdrawn: commit nothing
					}
					t.Insert(keys[0], bal-amt)
					for _, k := range keys[1:] {
						b, _ := t.Get(k)
						t.Insert(k, b+1)
					}
				})
			case "txn-atomic":
				// The delta transfer shape: read the source balance, then
				// commit commutative deltas (InsertWith re-evaluates against
				// the committed value, so concurrent transfers never lose
				// updates).
				sm.UpdateAtomic(func(t *shard.Txn[uint64, int64, struct{}]) {
					amt := int64(len(keys) - 1)
					if bal, _ := t.Get(keys[0]); bal < amt {
						return // overdrawn: commit nothing
					}
					t.InsertWith(keys[0], -amt, add)
					for _, k := range keys[1:] {
						t.InsertWith(k, 1, add)
					}
				})
			default:
				panic("unknown transfer mode " + mode)
			}
			c.add(1)
		}
	})
	sm.Close()
	if live := sm.Live(); live != 0 {
		panic(fmt.Sprintf("txn workload: leaked %d nodes", live))
	}
	return mops
}

// Command ycsbbench regenerates Figure 7: YCSB workloads A (50/50 read/
// update), B (95/5) and C (read-only) over the batched functional tree
// ("ours"), its hash-sharded scale-out ("ours-sharded", S independent map
// instances each with its own combining writer) and the concurrent
// baselines (skip list, non-blocking external BST, B+tree, striped hash
// map).  -scan adds workload E (95% short scans of uniform length 1–100,
// 5% inserts): on ours-sharded every scan streams a consistent GSN cut
// through the pooled loser-tree merge, and on the point baselines a scan
// degrades to consecutive point reads.
//
// Usage:
//
//	ycsbbench                         # all structures, workloads A/B/C
//	ycsbbench -records 50000000       # the paper's key-space size
//	ycsbbench -structures ours,ours-sharded -shards 8 -dur 10s
//	ycsbbench -txn -txnkeys 4         # add multi-key transfer cells (atomic, per-shard, multi-key CAS)
//	ycsbbench -scan                   # add workload E scan cells
//	ycsbbench -wal -walfsync always   # add ours-sharded durability-tax cells
//	ycsbbench -json BENCH_ycsb.json   # machine-readable results
//
// -longreader switches to the space experiment instead of Figure 7: one
// read transaction pins a snapshot while writers commit a fixed-size
// update storm, comparing peak retained versions, peak heap and write
// throughput across GC algorithms (sbgc/epoch/hp/pswf); -memjson writes
// the BENCH_mem/v1 document:
//
//	ycsbbench -longreader -memjson BENCH_mem.json
//	ycsbbench -longreader -lrwriters 8 -lrops 500000 -lrrecords 100000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mvgc/internal/bench"
	"mvgc/internal/experiments"
	"mvgc/internal/ycsb"
)

func main() {
	var (
		records    = flag.Uint64("records", 1_000_000, "loaded key count (paper: 5e7)")
		threads    = flag.Int("threads", 0, "client threads (default GOMAXPROCS)")
		shards     = bench.ShardsFlag("shard count for ours-sharded")
		dur        = flag.Duration("dur", 3*time.Second, "measured duration per cell")
		latency    = flag.Duration("latency", 50*time.Millisecond, "batched update latency bound (paper: 50ms)")
		structures = flag.String("structures", "", "comma-separated structures (default ours,ours-sharded,skiplist,lfbst,bptree,hashmap)")
		jsonPath   = flag.String("json", "", "also write machine-readable results (BENCH_ycsb.json schema) to this path")
		txn        = flag.Bool("txn", false, "also run the multi-key transfer workload (UpdateAtomic vs per-shard Update)")
		txnKeys    = flag.Int("txnkeys", 2, "keys touched per transfer transaction (with -txn)")
		scan       = flag.Bool("scan", false, "also run YCSB workload E (95% short scans / 5% inserts)")
		walOn      = flag.Bool("wal", false, "also run ours-sharded with a write-ahead log attached (durability tax cells)")
		walFsync   = flag.String("walfsync", "always", "WAL fsync policy for -wal cells: always, interval or off")
		longReader = flag.Bool("longreader", false, "run the long-reader write-storm space experiment instead of Figure 7")
		lrWriters  = flag.Int("lrwriters", 0, "writer processes for -longreader (default GOMAXPROCS-1, capped at 8)")
		lrOps      = flag.Int("lrops", 0, "committed updates per writer for -longreader (default 200000)")
		lrRecords  = flag.Uint64("lrrecords", 0, "loaded key count for -longreader (default 100000)")
		lrAlgs     = flag.String("lralgs", "", "comma-separated GC algorithms for -longreader (default sbgc,epoch,hp,pswf)")
		memJSON    = flag.String("memjson", "", "with -longreader, also write machine-readable results (BENCH_mem.json schema) to this path")
	)
	flag.Parse()

	if *longReader {
		lcfg := experiments.DefaultLongReader()
		if *lrWriters > 0 {
			lcfg.Writers = *lrWriters
		}
		if *lrOps > 0 {
			lcfg.OpsPerWriter = *lrOps
		}
		if *lrRecords > 0 {
			lcfg.Records = *lrRecords
		}
		if *lrAlgs != "" {
			lcfg.Algorithms = strings.Split(*lrAlgs, ",")
		}
		results := experiments.RunLongReader(lcfg, os.Stdout)
		if *memJSON != "" {
			report := bench.MemReport{
				Records:      lcfg.Records,
				Writers:      lcfg.Writers,
				OpsPerWriter: lcfg.OpsPerWriter,
				Results:      results,
			}
			writeReport(*memJSON, report.WriteJSON)
		}
		return
	}

	cfg := experiments.DefaultFigure7()
	cfg.Records = *records
	cfg.Shards = *shards
	cfg.Duration = *dur
	cfg.MaxLatency = *latency
	if *threads > 0 {
		cfg.Threads = *threads
	}
	if *structures != "" {
		cfg.Structures = strings.Split(*structures, ",")
	}
	if *scan {
		cfg.Workloads = append(cfg.Workloads, ycsb.WorkloadE)
	}
	results := experiments.RunFigure7(cfg, os.Stdout)

	if *walOn {
		// The same sharded structure with every batch commit logged and
		// fsynced: the delta against the plain ours-sharded cells is the
		// durability tax.  Records carry "wal": true, so pre-WAL baseline
		// keys are untouched and benchdiff treats these as new cells on
		// first appearance.
		wcfg := cfg
		wcfg.WAL = true
		wcfg.WALFsync = *walFsync
		wcfg.Structures = []string{"ours-sharded"}
		results = append(results, experiments.RunFigure7(wcfg, os.Stdout)...)
	}

	if *txn {
		tcfg := experiments.DefaultTxn()
		tcfg.Accounts = cfg.Records
		tcfg.Threads = cfg.Threads
		tcfg.Shards = cfg.Shards
		tcfg.Duration = cfg.Duration
		tcfg.KeysPerTxn = *txnKeys
		results = append(results, experiments.RunTxn(tcfg, os.Stdout)...)
	}

	if *jsonPath != "" {
		report := bench.YCSBReport{
			Threads:     cfg.Threads,
			Shards:      cfg.Shards,
			Records:     cfg.Records,
			DurationSec: cfg.Duration.Seconds(),
			Results:     results,
		}
		writeReport(*jsonPath, report.WriteJSON)
	}
}

// writeReport writes one machine-readable document to path, exiting on any
// I/O failure so CI never uploads a truncated artifact.
func writeReport(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ycsbbench:", err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, "ycsbbench:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "ycsbbench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
}

package main

import (
	"time"

	"mvgc/internal/ycsb"
)

// The four workloads.  Names are fixed: later issues cite them.
const (
	wlReadZipf    = "wire_read_zipf"
	wlWriteDur    = "wire_write_durable"
	wlEmbeddedTxn = "embedded_txn_scan"
	wlStorm       = "pinned_reader_storm"
)

var workloadNames = []string{wlReadZipf, wlWriteDur, wlEmbeddedTxn, wlStorm}

// Process shape.  This box has two cores; the recorded configuration must
// never depend on the runner's core count, so everything that could
// default to GOMAXPROCS is pinned here.
const (
	pinnedProcs = 2 // GOMAXPROCS
	numShards   = 2
	numClients  = 2 // connections (wire) or goroutines (embedded)
)

// sizes is everything about a run that scales.  full() is the ledger's
// configuration; tiny() is the smoke test's.
type sizes struct {
	readKeys, writeKeys, embKeys, stormKeys int
	stormUpdates                            int // per storm: fixed count, so the retained-version ceiling is deterministic
	warm                                    time.Duration
	setups                                  int // set-ups per run; setup_s is their median
	ladderOps                               int // ops of the workload's stream replayed per rung
	probeOps                                int // ops of each kind the stream lacks, so every rung prices every kind
	algUpdates                              int // updates per VM algorithm in the pinned-reader rows
	// depth is the closed-loop pipelining depth per connection: where
	// doubling it no longer buys a tenth more throughput, so ops_s prices the
	// engine and not the combiner's 1 ms batching timer.  Measured on the
	// two-core box with the server's pipeline cap out of the way (ops/s at
	// depth 256/512/1024/2048/4096): 95/5 284k/354k/392k/421k/443k at 1.95
	// of 2 cores busy from 1024 on, 100 % SET 78k/111k/142k/165k/167k at
	// 1.7 cores busy (the rest waits for fsync under the append lock).
	// TestClosedLoopSaturated holds the line.
	depth int
	// Open-loop rates, ops/s over both connections: 19/38/57 % and
	// 15/30/45 % of the closed-loop ops_s this commit measured on the
	// two-core box (≈ 420k and ≈ 165k) — light, middling and busy, all well
	// short of the knee so the generator keeps its schedule.
	ratesRead, ratesWrite [3]float64
	checkpointBytes       int64
	segmentBytes          int64
}

func full() sizes {
	return sizes{
		// The embedded workloads load 1M keys, not the 100k their issue
		// named: an 8 MB tree lives in this host's shared last-level cache
		// only while the neighbours are quiet, and ops_s swung between
		// 235k and 375k with them.  At 1M keys the lower levels miss the
		// cache in both regimes.  wire_write_durable stays at 100k: it is
		// bound by fsync, not by the tree.
		readKeys: 1_000_000, writeKeys: 100_000, embKeys: 1_000_000, stormKeys: 1_000_000,
		stormUpdates:    400_000,
		warm:            time.Second,
		setups:          3,
		ladderOps:       200_000,
		probeOps:        4_000,
		algUpdates:      50_000,
		depth:           2048,
		ratesRead:       [3]float64{80_000, 160_000, 240_000},
		ratesWrite:      [3]float64{25_000, 50_000, 75_000},
		checkpointBytes: 4 << 20,
		segmentBytes:    1 << 20,
	}
}

func tiny() sizes {
	return sizes{
		readKeys: 20_000, writeKeys: 4_000, embKeys: 4_000, stormKeys: 4_000,
		stormUpdates:    5_000,
		warm:            20 * time.Millisecond,
		setups:          1,
		ladderOps:       2_000,
		probeOps:        200,
		algUpdates:      2_000,
		depth:           64,
		ratesRead:       [3]float64{2_000, 4_000, 6_000},
		ratesWrite:      [3]float64{1_000, 2_000, 3_000},
		checkpointBytes: 32 << 10,
		segmentBytes:    8 << 10,
	}
}

// keysOf is the preloaded key count of a workload.
func (z sizes) keysOf(w string) int {
	switch w {
	case wlReadZipf:
		return z.readKeys
	case wlWriteDur:
		return z.writeKeys
	case wlEmbeddedTxn:
		return z.embKeys
	}
	return z.stormKeys
}

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opTxn  // move one unit between the two accounts of a pair
	opScan // consistent scan of n entries from key
	numKinds
)

var kindNames = [numKinds]string{"get", "set", "txn", "scan"}

// op is one generated operation.  The program under test only ever sees
// generated ops: nothing below reads the seed.
type op struct {
	kind    opKind
	key, to int64 // to: the credited account of a txn
	n       int   // scan length
}

// Values carry their own key so every reply can be verified without a
// model of the store: bits 62..43 key, 42..40 writer, 39..0 sequence.
const (
	valSeqBits    = 40
	valWriterBits = 3
	preloadWriter = 7
	ladderWriter  = 6
)

func encVal(key int64, writer int, seq int64) int64 {
	return key<<(valSeqBits+valWriterBits) | int64(writer)<<valSeqBits | seq&(1<<valSeqBits-1)
}

func valKey(v int64) int64 { return v >> (valSeqBits + valWriterBits) }
func valSeq(v int64) int64 { return v & (1<<valSeqBits - 1) }

// The embedded workloads split the key space so a transfer sum can be
// conserved next to point writes: keys 4j and 4j+1 are the two accounts
// of pair j and only transfers write them; keys 4j+2 and 4j+3 are point
// keys whose values are encVal-tagged.  A consistent cut therefore shows
// every pair summing to 2*initialBalance, and any scan that returns both
// accounts of a pair can check it.
const initialBalance = 1_000_000

func isAccount(k int64) bool { return k&3 < 2 }

// initialValue is what set-up loads under key k.
func initialValue(w string, k int64) int64 {
	if w == wlEmbeddedTxn && isAccount(k) {
		return initialBalance
	}
	return encVal(k, preloadWriter, 0)
}

// opGen is one client's seeded op stream.
type opGen interface{ next() op }

// streamSeed derives a client's private seed; the same (seed, client)
// always yields the same ops.
func streamSeed(seed uint64, client int) uint64 {
	return ycsb.Mix64(seed*0x9e3779b97f4a7c15 + uint64(client) + 1)
}

// newStream builds client's op stream for workload w.
func newStream(w string, z sizes, seed uint64, client int) opGen {
	s := streamSeed(seed, client)
	switch w {
	case wlReadZipf:
		return &zipfGen{g: ycsb.NewGenerator(ycsb.WorkloadB, uint64(z.readKeys), s)}
	case wlWriteDur:
		return &ownedSetGen{rng: ycsb.NewSplitMix64(s), client: int64(client), half: uint64(z.writeKeys / numClients)}
	case wlEmbeddedTxn:
		return &txnScanGen{rng: ycsb.NewSplitMix64(s), keys: uint64(z.embKeys)}
	}
	return &uniformSetGen{rng: ycsb.NewSplitMix64(s), keys: uint64(z.stormKeys)}
}

// zipfGen is YCSB B: 95 % GET / 5 % SET over scrambled-zipfian keys.
type zipfGen struct{ g *ycsb.Generator }

func (g *zipfGen) next() op {
	o := g.g.Next()
	if o.Kind == ycsb.OpRead {
		return op{kind: opGet, key: int64(o.Key)}
	}
	return op{kind: opSet, key: int64(o.Key)}
}

// ownedSetGen is 100 % SET, uniform over the keys congruent to the client
// modulo numClients: one writer per key, so the last acked value of every
// key is known without coordination.
type ownedSetGen struct {
	rng    *ycsb.SplitMix64
	client int64
	half   uint64
}

func (g *ownedSetGen) next() op {
	return op{kind: opSet, key: int64(g.rng.Intn(g.half))*numClients + g.client}
}

// uniformSetGen is 100 % point updates over uniform keys.
type uniformSetGen struct {
	rng  *ycsb.SplitMix64
	keys uint64
}

func (g *uniformSetGen) next() op { return op{kind: opSet, key: int64(g.rng.Intn(g.keys))} }

// txnScanGen is 50 % Get, 25 % Insert, 15 % two-key transfers and 10 %
// consistent scans of uniform length 1-100, all over uniform keys.
type txnScanGen struct {
	rng  *ycsb.SplitMix64
	keys uint64
}

func (g *txnScanGen) next() op {
	u := g.rng.Float64()
	pair := int64(g.rng.Intn(g.keys/4)) * 4
	side := int64(g.rng.Next() & 1)
	switch {
	case u < 0.50:
		return op{kind: opGet, key: int64(g.rng.Intn(g.keys))}
	case u < 0.75:
		return op{kind: opSet, key: pair + 2 + side}
	case u < 0.90:
		return op{kind: opTxn, key: pair + side, to: pair + 1 - side}
	}
	return op{kind: opScan, key: int64(g.rng.Intn(g.keys)), n: 1 + int(g.rng.Intn(100))}
}

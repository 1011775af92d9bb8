package main

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func smokeCtx(t *testing.T, seconds float64) *runCtx {
	t.Helper()
	prev := runtime.GOMAXPROCS(pinnedProcs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return &runCtx{z: tiny(), seed: 7, seconds: seconds, scratch: t.TempDir()}
}

func wd(t *testing.T) string {
	t.Helper()
	d, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// reached reports whether a per-layer metric belongs to a layer workload w
// runs through: its rung is on the workload's path, and the per-algorithm
// rows are the pinned-reader storm's.
func reached(w, name string) bool {
	layer, rest, _ := strings.Cut(name, ".")
	if layer == "driver" {
		return true
	}
	if layer == "vm" && strings.Contains(rest, ".") {
		return w == wlStorm
	}
	rung, ok := map[string]int{
		"ftree": rFtree, "vm": rVM, "core": rCore, "batch": rBatch, "shard": rShard,
		"wal": rWAL, "netproto": rWire, "wire": rWire, "repl": rRepl,
	}[layer]
	return ok && slices.Contains(traverses[w], rung)
}

// TestSmoke runs every workload at tiny size with 200 ms windows, all
// passes, and asserts that what comes out is what BENCHMARK.json names: the
// same workloads; every end-to-end metric on every workload; in a report's
// traced pass exactly the per-layer metrics of the layers the workload
// reaches, and in the gate's every one; each with its ledger unit; every
// check passing.
func TestSmoke(t *testing.T) {
	led, err := loadLedger(wd(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(led.Workloads), len(workloadNames))
	}
	for i, w := range led.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the driver's is %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("%s: why must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
	}
	if len(led.Command) == 0 || len(led.Paths) != 1 || led.Paths[0] != "benchmark" {
		t.Errorf("BENCHMARK.json: command %v paths %v", led.Command, led.Paths)
	}
	c := smokeCtx(t, 0.4)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			var onPath []ledgerMetric
			for _, m := range led.PerLayer {
				if reached(w, m.Name) {
					onPath = append(onPath, m)
				}
			}
			for _, pass := range []struct {
				name   string
				run    func() (*result, error)
				want   []ledgerMetric
				ladder bool
			}{
				{"end_to_end", func() (*result, error) { return runE2E(c, w) }, led.EndToEnd, false},
				{"per_layer", func() (*result, error) { return runTraced(c, w, "", false) }, onPath, true},
				{"per_layer, every rung", func() (*result, error) { return runTraced(c, w, "", true) }, led.PerLayer, true},
			} {
				res, err := pass.run()
				if err != nil {
					t.Fatalf("%s: %v", pass.name, err)
				}
				for _, ck := range res.checks {
					if !ck.OK {
						t.Errorf("%s: check %s failed: %s", pass.name, ck.Name, ck.Detail)
					}
				}
				if !res.correct() || res.failed != 0 || res.attempted < 1 {
					t.Errorf("%s: correct=%v attempted=%d failed=%d", pass.name, res.correct(), res.attempted, res.failed)
				}
				picked, err := pick(res.metrics, names(pass.want))
				if err != nil {
					t.Fatalf("%s: %v", pass.name, err)
				}
				for _, m := range pass.want {
					if got := picked[m.Name].Unit; got != m.Unit {
						t.Errorf("%s: %s reported in %q, ledger says %q", pass.name, m.Name, got, m.Unit)
					}
				}
				for n := range res.metrics {
					if !nameRE.MatchString(n) {
						t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", pass.name, n)
					}
				}
				if pass.name == "per_layer" {
					// A layer the workload never reaches is absent, not zero.
					for _, m := range led.PerLayer {
						if _, ok := res.metrics[m.Name]; ok && !reached(w, m.Name) {
							t.Errorf("%s reports %s, a layer it never reaches", w, m.Name)
						}
					}
					if got, want := len(res.ladder), len(traverses[w]); got != want {
						t.Errorf("ladder has %d rungs, %s traverses %d", got, w, want)
					}
				}
				if pass.ladder {
					checkLadder(t, res.ladder)
				}
			}
		})
	}
}

// checkLadder asserts the table's arithmetic: the deltas from the top rung
// down through each rung's base telescope to the top rung's ns/op.
func checkLadder(t *testing.T, rows []rungRow) {
	t.Helper()
	if len(rows) == 0 {
		t.Fatal("no ladder")
	}
	byName := map[string]rungRow{}
	for _, r := range rows {
		byName[r.Rung] = r
		if r.NsPerOp <= 0 {
			t.Errorf("rung %s: ns/op %v", r.Rung, r.NsPerOp)
		}
	}
	top := rows[len(rows)-1]
	sum := 0.0
	for r, ok := top, true; ok; r, ok = byName[r.Base] {
		sum += r.DeltaNs
	}
	if sum < top.NsPerOp*0.95 || sum > top.NsPerOp*1.05 {
		t.Errorf("deltas below %s sum to %.0f ns, the rung costs %.0f", top.Rung, sum, top.NsPerOp)
	}
}

// TestClosedLoopSaturated guards the sizing fact the closed-loop phases
// rest on: at the ledger's depth doubling the window must raise ops_s by
// less than a tenth, or ops_s measures the combiner's 1 ms batching timer
// and no engine change can show.  The benchmark's servers cap a connection
// at twice the ledger's depth, so the doubled window is really in flight.
// It needs the ledger's sizes and over a minute, so -short skips it.
func TestClosedLoopSaturated(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full sizes and ~70 s")
	}
	c := smokeCtx(t, 0)
	c.z = full()
	const (
		dur    = 3 * time.Second
		rounds = 5
	)
	for _, w := range []string{wlReadZipf, wlWriteDur} {
		durable := w == wlWriteDur
		cl, err := startCluster(clusterOpts{w: w, z: c.z, wal: durable, follower: durable, scratch: c.scratch, nclients: numClients})
		if err != nil {
			t.Fatal(err)
		}
		gens := streams(w, c.z, c.seed, numClients)
		rate := func(depth int) float64 {
			res, err := closedLoop(cl.clients, gens, depth, dur, tracing{})
			if err != nil {
				t.Fatal(err)
			}
			return res.opsPerSec(dur)
		}
		depth := c.z.depth
		rate(depth) // warm
		// Alternating, medians compared: this box slows down in bursts.
		var at, doubled []float64
		for i := 0; i < rounds; i++ {
			at = append(at, rate(depth))
			doubled = append(doubled, rate(2*depth))
		}
		if err := cl.stop(); err != nil {
			t.Fatal(err)
		}
		ratio := median(doubled) / median(at)
		t.Logf("%s: ops/s at depth %d %.0f, at depth %d %.0f: %+.1f%%", w, depth, at, 2*depth, doubled, 100*(ratio-1))
		// One-sided: a deeper window that is no faster is saturation.
		if ratio > 1.10 {
			t.Errorf("%s: doubling depth %d raised ops_s by %.1f%%: the closed loop is not saturated", w, depth, 100*(ratio-1))
		}
	}
}

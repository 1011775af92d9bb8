package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// rule is how one end-to-end metric is judged between two reports.
type rule struct {
	name   string
	higher bool    // higher is better
	rel    float64 // share of the base value it may worsen by
	abs    float64 // and/or an absolute allowance, in the metric's unit
	absTo  float64 // abs applies only while the base value is below this (0 = always)
	// loose names the workloads on which the metric cannot repeat within a
	// tenth on this box.  It is demoted there, not given a looser bound: its
	// row is printed and judged, but a worse one is marked worse* and does
	// not fail the comparison.
	loose []string
}

// reportRules judge the end-to-end metrics that every report carries but
// BENCHMARK.json cannot hold, because they are undefined on some workload or
// sit at zero on one (see README.md).  Each bound is twice the widest spread
// between the quartiles of ten runs seen on this box, at least 3 %, at most
// 10 %; the latencies and the recovery speed spread wider than that on every
// workload they have.
var reportRules = []rule{
	{name: "fail_frac"}, // any rise is worse
	{name: "lat_p50_us", rel: 0.10, loose: workloadNames},
	{name: "lat_p99_us", rel: 0.10, loose: workloadNames},
	{name: "alloc_b_op", rel: 0.03, abs: 8, absTo: 16},
	{name: "mean_versions", rel: 0.03},
	{name: "peak_versions", rel: 0.10, abs: 1},
	{name: "peak_heap_mib", rel: 0.05, loose: []string{wlWriteDur, wlEmbeddedTxn}},
	{name: "wal_bytes_per_user_byte", rel: 0.05},
	{name: "recover_mb_s", higher: true, rel: 0.10, loose: workloadNames},
}

// rules lists the ledger's end-to-end metrics, bounded by BENCHMARK.json on
// every workload, then the report-only ones.
func rules(led *ledger) []rule {
	var out []rule
	for _, m := range led.EndToEnd {
		out = append(out, rule{name: m.Name, higher: m.Better == "higher", rel: *m.Bound})
	}
	return append(out, reportRules...)
}

// allowance is how far base may worsen before the rule calls it worse.
func (r rule) allowance(base float64) float64 {
	a := r.rel * math.Abs(base)
	if r.abs > 0 && (r.absTo == 0 || math.Abs(base) < r.absTo) {
		a = math.Max(a, r.abs)
	}
	return a
}

// side is one side of a comparison: the median over its reports of every
// (workload, metric) cell, and the spread between the reports.
type side struct {
	median map[string]float64
	spread map[string]float64 // (max-min)/|median|; 0 with a single report
	unit   map[string]string
}

func cellKey(w, m string) string { return w + "\x00" + m }

func loadSide(paths string) (*side, error) {
	vals := map[string][]float64{}
	s := &side{median: map[string]float64{}, spread: map[string]float64{}, unit: map[string]string{}}
	for _, p := range strings.Split(paths, ",") {
		rep, err := readReport(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		for _, w := range rep.Workloads {
			for n, m := range w.EndToEnd {
				k := cellKey(w.Name, n)
				vals[k] = append(vals[k], m.Value)
				s.unit[k] = m.Unit
			}
		}
	}
	for k, v := range vals {
		med := median(v)
		s.median[k] = med
		if len(v) > 1 && med != 0 {
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			s.spread[k] = (hi - lo) / math.Abs(med)
		}
	}
	return s, nil
}

type verdict string

const (
	vSame       verdict = "same"
	vBetter     verdict = "better"
	vWorse      verdict = "worse"
	vUnresolved verdict = "unresolved" // the base's own spread is wider than the bound
	vMissing    verdict = "missing"    // the cell exists on one side only
)

// judge compares one cell.  ok reports whether both sides have it.
func judge(r rule, base, cur, baseSpread float64) verdict {
	worsening := cur - base
	if r.higher {
		worsening = base - cur
	}
	allow := r.allowance(base)
	switch {
	case worsening > allow:
		if r.rel > 0 && baseSpread > r.rel {
			return vUnresolved
		}
		return vWorse
	case -worsening > allow:
		return vBetter
	}
	return vSame
}

// compareSides prints one row per (workload, metric) and returns how many
// rows are worse or missing.  Any rise in fail_frac is worse.  A worse row
// of a metric demoted on that workload is marked "worse*" and not counted.
func compareSides(w io.Writer, led *ledger, base, cur *side) (worse int) {
	fmt.Fprintf(w, "%-22s %-24s %14s %14s %8s  %-6s %s\n", "workload", "metric", "base", "new", "new/base", "unit", "verdict")
	for _, wl := range workloadNames {
		for _, r := range rules(led) {
			k := cellKey(wl, r.name)
			b, okB := base.median[k]
			c, okC := cur.median[k]
			if !okB && !okC {
				continue // not defined on this workload
			}
			if !okB || !okC {
				fmt.Fprintf(w, "%-22s %-24s %14s %14s %8s  %-6s %s\n", wl, r.name, have(b, okB), have(c, okC), "-", "", vMissing)
				worse++
				continue
			}
			v := judge(r, b, c, base.spread[k])
			if v == vWorse {
				if slices.Contains(r.loose, wl) {
					v += "*"
				} else {
					worse++
				}
			}
			ratio := "-"
			if b != 0 {
				ratio = fmt.Sprintf("%.3f", c/b)
			}
			fmt.Fprintf(w, "%-22s %-24s %14.4f %14.4f %8s  %-6s %s\n", wl, r.name, b, c, ratio, base.unit[k], v)
		}
	}
	return worse
}

func have(v float64, ok bool) string {
	if !ok {
		return "absent"
	}
	return fmt.Sprintf("%.4f", v)
}

func compareFiles(w io.Writer, led *ledger, basePaths, newPaths string) error {
	base, err := loadSide(basePaths)
	if err != nil {
		return err
	}
	cur, err := loadSide(newPaths)
	if err != nil {
		return err
	}
	if n := compareSides(w, led, base, cur); n > 0 {
		return fmt.Errorf("%d rows worse or missing", n)
	}
	return nil
}

// printReport prints every metric of every workload by name, with its
// unit and the sample count behind it, then the ladder and the checks.
func printReport(w io.Writer, led *ledger, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "mvgc ledger  commit=%s  %s  GOMAXPROCS=%d nproc=%d shards=%d clients=%d  seed=%d seconds=%g sizes=%s\n",
		e.Commit, e.GoVersion, e.GOMAXPROCS, e.NProc, e.Shards, e.Clients, e.Seed, e.Seconds, e.Sizes)
	bounded := map[string]bool{}
	for _, m := range led.EndToEnd {
		bounded[m.Name] = true
	}
	row := func(n string, m metric, mark string) {
		fmt.Fprintf(w, "  %-32s %16.4f %-6s n=%-9d %s\n", n, m.Value, m.Unit, m.N, mark)
	}
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s  correct=%v attempted=%d failed=%d\n", wr.Name, wr.Correct, wr.Attempted, wr.Failed)
		fmt.Fprintln(w, " end to end (tracing off)")
		for _, n := range sortedNames(wr.EndToEnd) {
			mark := ""
			if bounded[n] {
				mark = "ledger"
			}
			row(n, wr.EndToEnd[n], mark)
		}
		fmt.Fprintln(w, " per layer (traced ladder pass)")
		for _, n := range sortedNames(wr.PerLayer) {
			row(n, wr.PerLayer[n], "")
		}
		printLadder(w, wr.Ladder)
		for _, c := range wr.Checks {
			if !c.OK {
				fmt.Fprintf(w, " CHECK FAILED %s: %s\n", c.Name, c.Detail)
			}
		}
		fmt.Fprintf(w, " checks: %d run\n", len(wr.Checks))
	}
}

// printLadder prints the rung table: each rung's ns/op under the stream's
// mix, its delta over the rung below, and the price of each op kind.
func printLadder(w io.Writer, rows []rungRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, " ladder  %-9s %10s %10s %-9s  %10s %10s %10s %10s\n", "rung", "ns/op", "delta", "over", "get", "set", "txn", "scan")
	for _, r := range rows {
		fmt.Fprintf(w, "         %-9s %10.0f %+10.0f %-9s  %10.0f %10.0f %10.0f %10.0f\n",
			r.Rung, r.NsPerOp, r.DeltaNs, r.Base, r.KindNs["get"], r.KindNs["set"], r.KindNs["txn"], r.KindNs["scan"])
	}
}

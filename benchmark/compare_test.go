package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := rule{name: "lat", rel: 0.10}
	higher := rule{name: "ops", higher: true, rel: 0.10}
	alloc := rule{name: "alloc_b_op", rel: 0.10, abs: 8, absTo: 16}
	fail := rule{name: "fail_frac"}
	peak := rule{name: "peak_versions", rel: 0.10, abs: 1}
	for _, tc := range []struct {
		name      string
		r         rule
		base, cur float64
		spread    float64
		want      verdict
	}{
		{"lower: small rise is the same", lower, 100, 109, 0, vSame},
		{"lower: rise past the bound is worse", lower, 100, 111, 0, vWorse},
		{"lower: fall past the bound is better", lower, 100, 89, 0, vBetter},
		{"higher: small fall is the same", higher, 100, 91, 0, vSame},
		{"higher: fall past the bound is worse", higher, 100, 89, 0, vWorse},
		{"higher: rise past the bound is better", higher, 100, 111, 0, vBetter},
		{"spread wider than the bound: unresolved, not worse", lower, 100, 130, 0.2, vUnresolved},
		{"spread wider than the bound does not hide a tie", lower, 100, 105, 0.2, vSame},
		{"absolute allowance while the base is small", alloc, 4, 11, 0, vSame},
		{"absolute allowance exceeded", alloc, 4, 13, 0, vWorse},
		{"relative bound once the base is large", alloc, 100, 109, 0, vSame},
		{"no absolute allowance once the base is large", alloc, 100, 107.9, 0, vSame},
		{"large base, past the relative bound", alloc, 100, 111, 0, vWorse},
		{"a small count may move by one whatever its size", peak, 4, 5, 0, vSame},
		{"but not by two", peak, 4, 6, 0, vWorse},
		{"fail_frac: any rise is worse", fail, 0, 0.0001, 0, vWorse},
		{"fail_frac: zero stays the same", fail, 0, 0, 0, vSame},
	} {
		if got := judge(tc.r, tc.base, tc.cur, tc.spread); got != tc.want {
			t.Errorf("%s: judge(%v, %v) = %s, want %s", tc.name, tc.base, tc.cur, got, tc.want)
		}
	}
}

func testLedger() *ledger {
	b := 0.10
	return &ledger{EndToEnd: []ledgerMetric{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: &b},
		{Name: "ops_s", Unit: "ops/s", Better: "higher", Bound: &b},
	}}
}

func sideOf(cells map[string]float64) *side {
	s := &side{median: map[string]float64{}, spread: map[string]float64{}, unit: map[string]string{}}
	for k, v := range cells {
		w, m, _ := strings.Cut(k, "/")
		s.median[cellKey(w, m)] = v
	}
	return s
}

func TestCompareSides(t *testing.T) {
	baseCells := map[string]float64{
		wlReadZipf + "/ops_s": 1000, wlReadZipf + "/setup_s": 1, wlReadZipf + "/fail_frac": 0, wlReadZipf + "/lat_p99_us": 6000,
		wlStorm + "/ops_s": 500, wlStorm + "/peak_versions": 5, wlStorm + "/peak_heap_mib": 97,
		wlEmbeddedTxn + "/peak_heap_mib": 108,
	}
	// with is the base with some cells changed; NaN removes a cell.
	with := func(changes map[string]float64) *side {
		cells := map[string]float64{}
		for k, v := range baseCells {
			cells[k] = v
		}
		for k, v := range changes {
			if cells[k] = v; v != v {
				delete(cells, k)
			}
		}
		return sideOf(cells)
	}
	gone := math.NaN()
	for _, tc := range []struct {
		name  string
		cur   map[string]float64
		worse int
		rows  []string // substrings of the printed table
	}{
		{"identical", nil, 0, []string{"same"}},
		{"one workload slower, the other faster: one row each",
			map[string]float64{wlReadZipf + "/ops_s": 800, wlStorm + "/ops_s": 600}, 1, []string{"0.800", "worse", "1.200", "better"}},
		{"a failure appears",
			map[string]float64{wlReadZipf + "/fail_frac": 0.001}, 1, []string{"fail_frac", "worse"}},
		{"a cell goes missing",
			map[string]float64{wlReadZipf + "/setup_s": gone}, 1, []string{"setup_s", "absent", "missing"}},
		{"a report-only metric worsens where it repeats: worse",
			map[string]float64{wlStorm + "/peak_versions": 7, wlStorm + "/peak_heap_mib": 110}, 2, []string{"peak_versions", "peak_heap_mib", "worse"}},
		{"and where it was demoted: marked, not failing",
			map[string]float64{wlReadZipf + "/lat_p99_us": 9000, wlEmbeddedTxn + "/peak_heap_mib": 130}, 0, []string{"lat_p99_us", "worse*", "peak_heap_mib"}},
	} {
		var out bytes.Buffer
		if got := compareSides(&out, testLedger(), with(nil), with(tc.cur)); got != tc.worse {
			t.Errorf("%s: %d rows worse, want %d\n%s", tc.name, got, tc.worse, out.String())
		}
		for _, want := range tc.rows {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: table lacks %q\n%s", tc.name, want, out.String())
			}
		}
		// A metric undefined on a workload on both sides is no row.
		if strings.Contains(out.String(), wlWriteDur) || strings.Contains(out.String(), "recover_mb_s") {
			t.Errorf("%s: a cell absent from both sides got a row\n%s", tc.name, out.String())
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := int64(1); i <= 100_000; i++ {
		h.record(i * 10)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 1_000_000
		if got := h.quantile(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 2%%", q, got, want)
		}
	}
	if q, _ := h.pmax(); q != 1-10.0/100_000 {
		t.Errorf("pmax quantile = %v, want the one with ten samples beyond it", q)
	}
}

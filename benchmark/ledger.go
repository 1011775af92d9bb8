package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
)

// metric is one reported number.  N is the sample count behind a
// percentile or median (0 when the value is a plain ratio or count).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string)           { m[name] = metric{Value: v, Unit: unit} }
func (m metricSet) putN(name string, v float64, unit string, n int64) { m[name] = metric{v, unit, n} }

// check is one correctness assertion; a violated check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what one pass over one workload produced.
type result struct {
	metrics   metricSet
	attempted int64
	failed    int64
	checks    []check
	ladder    []rungRow
}

func newResult() *result { return &result{metrics: metricSet{}} }

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		r.failed++
	}
	r.checks = append(r.checks, c)
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// ledgerMetric is one entry of BENCHMARK.json's end_to_end or per_layer.
type ledgerMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// ledger is BENCHMARK.json: the names, units, directions and regression
// bounds every later change is judged by.
type ledger struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []ledgerMetric `json:"end_to_end"`
	PerLayer []ledgerMetric `json:"per_layer"`
}

// loadLedger finds BENCHMARK.json in dir or its parent (the program runs
// both from the repository root and from benchmark/).
func loadLedger(dir string) (*ledger, error) {
	var firstErr error
	for _, d := range []string{dir, filepath.Dir(dir)} {
		data, err := os.ReadFile(filepath.Join(d, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var l ledger
		if err := json.Unmarshal(data, &l); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &l, l.validate()
	}
	return nil, firstErr
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validate enforces the limits the ledger's consumers rely on.
func (l *ledger) validate() error {
	if n := len(l.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("BENCHMARK.json: %d workloads, want 2..8", n)
	}
	if n := len(l.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("BENCHMARK.json: %d end_to_end metrics, want 1..16", n)
	}
	if n := len(l.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("BENCHMARK.json: %d per_layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(s string) error {
		if !nameRE.MatchString(s) {
			return fmt.Errorf("BENCHMARK.json: bad name %q", s)
		}
		if seen[s] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", s)
		}
		seen[s] = true
		return nil
	}
	for _, w := range l.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
	}
	hasSetup := false
	for _, m := range l.EndToEnd {
		if err := name(m.Name); err != nil {
			return err
		}
		// 0.25 is the most the gate accepts (README.md quotes its contract).
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("BENCHMARK.json: %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("BENCHMARK.json: %s: better must be lower or higher", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		return fmt.Errorf("BENCHMARK.json: end_to_end lacks setup_s (s, lower)")
	}
	for _, m := range l.PerLayer {
		if err := name(m.Name); err != nil {
			return err
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("BENCHMARK.json: %s: better must be lower or higher", m.Name)
		}
	}
	return nil
}

// names returns the metric names of a ledger section.
func names(ms []ledgerMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// pick returns exactly the named metrics of have, or an error naming the
// first one missing: the ledger's metrics are defined on every workload.
func pick(have metricSet, want []string) (metricSet, error) {
	out := metricSet{}
	for _, n := range want {
		m, ok := have[n]
		if !ok {
			return nil, fmt.Errorf("metric %q was not measured", n)
		}
		out[n] = m
	}
	return out, nil
}

func sortedNames(m metricSet) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// env records where a report came from.
type env struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Shards     int     `json:"shards"`
	Clients    int     `json:"clients"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sizes      string  `json:"sizes"`
}

func currentEnv(seed uint64, seconds float64, sizesName string) env {
	e := env{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: "unknown", Shards: numShards, Clients: numClients, Seed: seed, Seconds: seconds, Sizes: sizesName,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			e.Commit += "+dirty" // built from a tree with uncommitted changes
		}
	}
	return e
}

// workloadReport is one workload's row group in a report file.
type workloadReport struct {
	Name      string    `json:"name"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	EndToEnd  metricSet `json:"end_to_end,omitempty"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
	Ladder    []rungRow `json:"ladder,omitempty"`
	Checks    []check   `json:"checks"`
}

// report is what -json writes and -compare reads.
type report struct {
	Schema    string           `json:"schema"`
	Env       env              `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

const reportSchema = "mvgc-ledger/v1"

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Command benchmark is the repository's performance ledger: one driver,
// four named workloads measured end to end with tracing off, and a traced
// ladder pass that prices the same op stream at every layer.  The names,
// units, directions and regression bounds live in ../BENCHMARK.json; see
// README.md for why each workload exists and how to read the output.
//
//	go run . -workload all -seed 1 -json out.json       # every workload, both passes
//	go run . -workload wire_read_zipf -seed 1 -seconds 20 -trace 0
//	go run . -compare base.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// scratchName is where logs and crash copies go, under the directory the
// program is run from: inside the checkout, and in its .gitignore.
const scratchName = ".bench_tmp"

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	jsonPath  string
	spansPath string
	compare   bool
	tiny      bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the op streams")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per pass")
	flag.IntVar(&o.trace, "trace", 0, "single workload: 0 runs the untraced end-to-end pass, 1 the traced ladder pass")
	flag.StringVar(&o.jsonPath, "json", "", "write the full report here")
	flag.StringVar(&o.spansPath, "spans", "", "write the traced pass's spans here")
	flag.BoolVar(&o.compare, "compare", false, "compare two reports: -compare base.json[,base2.json] new.json[,new2.json]")
	flag.BoolVar(&o.tiny, "tiny", false, "the smoke test's sizes: a ten-second look at every pass, not a measurement")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	led, err := loadLedger(wd)
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two report lists")
		}
		return compareFiles(os.Stdout, led, args[0], args[1])
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	// The recorded configuration must not depend on the runner's cores.
	runtime.GOMAXPROCS(pinnedProcs)
	z, sizesName := full(), "full"
	if o.tiny {
		z, sizesName = tiny(), "tiny"
	}
	// This process's private directory under the scratch directory.
	scratch := filepath.Join(wd, scratchName)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c := &runCtx{z: z, seed: o.seed, seconds: o.seconds, scratch: dir, full: !o.tiny}

	if o.workload != "all" {
		return runSingle(c, led, o.workload, o.trace, o.spansPath)
	}
	rep := &report{Schema: reportSchema, Env: currentEnv(o.seed, o.seconds, sizesName)}
	ok := true
	for _, w := range workloadNames {
		fmt.Fprintf(os.Stderr, "== %s: end-to-end pass\n", w)
		e2e, err := runE2E(c, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		fmt.Fprintf(os.Stderr, "== %s: traced ladder pass\n", w)
		lad, err := runTraced(c, w, spansFor(o.spansPath, w), false)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		wr := workloadReport{
			Name: w, Correct: e2e.correct() && lad.correct(),
			Attempted: e2e.attempted + lad.attempted, Failed: e2e.failed + lad.failed,
			EndToEnd: e2e.metrics, PerLayer: lad.metrics, Ladder: lad.ladder,
			Checks: append(e2e.checks, lad.checks...),
		}
		ok = ok && wr.Correct
		rep.Workloads = append(rep.Workloads, wr)
	}
	printReport(os.Stdout, led, rep)
	if o.jsonPath != "" {
		if err := rep.write(o.jsonPath); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// spansFor derives one span file per workload from -spans.
func spansFor(path, w string) string {
	if path == "" {
		return ""
	}
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "." + w + ext
}

// runSingle is the driver's contract: one workload, one pass, and as the
// last line of standard output one JSON object with exactly the ledger's
// metrics for that pass.
func runSingle(c *runCtx, led *ledger, w string, trace int, spansPath string) error {
	var (
		res  *result
		want []string
		err  error
	)
	if trace == 0 {
		res, err = runE2E(c, w)
		want = names(led.EndToEnd)
	} else {
		res, err = runTraced(c, w, spansPath, true)
		want = names(led.PerLayer)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w, err)
	}
	for _, n := range sortedNames(res.metrics) {
		m := res.metrics[n]
		fmt.Printf("%-34s %16.4f %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	printLadder(os.Stdout, res.ladder)
	for _, ck := range res.checks {
		fmt.Printf("check %-32s ok=%v %s\n", ck.Name, ck.OK, ck.Detail)
	}
	picked, err := pick(res.metrics, want)
	if err != nil {
		return fmt.Errorf("%s: %w", w, err)
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]lineMetric{}}
	for n, m := range picked {
		line.Metrics[n] = lineMetric{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.correct() {
		return fmt.Errorf("%s: a correctness check failed", w)
	}
	return nil
}

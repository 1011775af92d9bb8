package mvgc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsResolve: every test-name pattern a workflow hands to go
// test — a -run or -fuzz value, or a run='…' that a later -run "$run" uses —
// names Test, Fuzz or Benchmark functions that exist: each alternative, its
// ^ and $ anchors stripped, is a prefix of one declared in a _test.go file
// of the repository.  go test passes a -run that matches nothing, so a
// rename that leaves a CI step running no test fails here instead.  And
// every ./path a workflow's go run, build, test or vet names (a trailing
// /... or / stripped) is a directory with Go files, so a deleted package
// that a workflow still names fails here and not on the scheduled run.
func TestCIRunPatternsResolve(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(b, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	workflows, err := filepath.Glob(filepath.Join(".github", "workflows", "*.yml"))
	if err != nil || len(workflows) == 0 {
		t.Fatalf("no workflows found (%v)", err)
	}
	flag := regexp.MustCompile(`-(?:run|fuzz) (?:'([^']*)'|(\w+))|\brun='([^']*)'`)
	goCmd := regexp.MustCompile(`\bgo (?:run|build|test|vet)\b.*`)
	pkgArg := regexp.MustCompile(`\s(\./[\w./-]*)`)
	checked, dirs := 0, 0
	for _, wf := range workflows {
		b, err := os.ReadFile(wf)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flag.FindAllSubmatch(b, -1) {
			for _, alt := range strings.Split(string(m[1])+string(m[2])+string(m[3]), "|") {
				alt = strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$")
				if alt == "" {
					continue
				}
				checked++
				if !slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, alt) }) {
					t.Errorf("%s: %q is the prefix of no Test, Fuzz or Benchmark function", wf, alt)
				}
			}
		}
		for _, cmd := range goCmd.FindAll(b, -1) {
			for _, m := range pkgArg.FindAllSubmatch(cmd, -1) {
				dir := strings.TrimSuffix(strings.TrimSuffix(string(m[1]), "..."), "/")
				dirs++
				if files, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(files) == 0 {
					t.Errorf("%s: %s names %s, which holds no Go package", wf, cmd, m[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run, -fuzz or run= pattern found in the workflows")
	}
	t.Logf("%d pattern alternatives in %d workflows resolve among %d functions; %d package paths hold Go files", checked, len(workflows), len(names), dirs)
}

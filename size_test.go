package mvgc_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateSize = flag.Bool("update-size", false, "rewrite testdata/size.json with the counts TestSizeBudget reads")

// TestSizeBudget: the system's size is a ratchet.  It counts
//
//   - the production graph: the in-repo packages that `go list -deps
//     ./cmd/mvgcd . ./internal/netclient` names, found by walking go/build
//     imports, with the non-test lines of each and their total;
//   - the non-test Go lines outside benchmark/ (the ledger's own module);
//   - the root package's exported names;
//   - the lines of DESIGN.md and README.md,
//
// and logs the test lines outside benchmark/ without gating them.  A count
// above its value in testdata/size.json, or a package new to the graph,
// fails; one below is logged, and `go test -run TestSizeBudget -update-size
// .` writes the new values, which the change that lowered them commits.
func TestSizeBudget(t *testing.T) {
	nonTest, testLines := goLines(t)
	got := map[string]int{"lines outside benchmark": 0, "production lines": 0}
	for _, n := range nonTest {
		got["lines outside benchmark"] += n
	}
	for _, dir := range productionGraph(t, "cmd/mvgcd", ".", "internal/netclient") {
		got["production "+path.Join("mvgc", filepath.ToSlash(dir))] = nonTest[dir]
		got["production lines"] += nonTest[dir]
	}
	got["root exported names"] = rootExported(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		got[doc] = bytes.Count(b, []byte("\n"))
	}
	t.Logf("test lines outside benchmark: %d (not gated)", testLines)

	golden := filepath.Join("testdata", "size.json")
	if *updateSize {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]int
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(want)) {
		if _, ok := got[name]; !ok {
			t.Logf("%s fell: gone, golden %d (update testdata/size.json)", name, want[name])
		}
	}
	for _, name := range slices.Sorted(maps.Keys(got)) {
		g := got[name]
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: %d, and no golden value", name, g)
		case g > w:
			t.Errorf("%s rose: %d, golden %d", name, g, w)
		case g < w:
			t.Logf("%s fell: %d, golden %d (update testdata/size.json)", name, g, w)
		default:
			t.Logf("%s: %d", name, g)
		}
	}
}

// goLines counts the lines of the repository's Go files outside benchmark/:
// the non-test ones per directory, and the test ones in total.
func goLines(t *testing.T) (nonTest map[string]int, testLines int) {
	t.Helper()
	nonTest = map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		n := bytes.Count(b, []byte("\n"))
		if strings.HasSuffix(path, "_test.go") {
			testLines += n
		} else {
			nonTest[filepath.Dir(path)] += n
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return nonTest, testLines
}

// productionGraph returns the directories of the in-repo packages that the
// roots import, directly or not, the roots among them.  go/build reads each
// directory's imports itself; no go command runs.
func productionGraph(t *testing.T, roots ...string) []string {
	t.Helper()
	seen := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if seen[dir] {
			return
		}
		seen[dir] = true
		p, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range p.Imports {
			if imp == "mvgc" || strings.HasPrefix(imp, "mvgc/") {
				visit(filepath.Join(".", strings.TrimPrefix(imp, "mvgc")))
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return slices.Sorted(maps.Keys(seen))
}

// rootExported counts the root package's exported top-level names.
func rootExported(t *testing.T) int {
	t.Helper()
	p, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					n++
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							n++
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								n++
							}
						}
					}
				}
			}
		}
	}
	return n
}

package ceio_test

// Documentation audit, run in CI: every package in the module must carry
// a package-level doc comment, and every internal package's doc must
// state its paper-side counterpart (a "§" section reference or an
// explicit mention of the paper/CEIO design it substitutes for), per the
// DESIGN.md substitution table.

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ceio"
	"ceio/internal/experiments"
)

// goPackageDirs returns every directory under root containing non-test
// Go files, excluding testdata and hidden directories.
func goPackageDirs(t *testing.T, root string) []string {
	t.Helper()
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// readFile returns the contents of a repository file, failing the test
// if it cannot be read.
func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// packageDoc returns the longest package doc comment among the
// directory's non-test files ("longest" so a one-line build-tag stub
// never shadows the real doc).
func packageDoc(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var doc string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if f.Doc != nil && len(f.Doc.Text()) > len(doc) {
			doc = f.Doc.Text()
		}
	}
	return doc
}

// paperHook matches a paper-counterpart statement: a section sign or an
// explicit reference to the paper / CEIO / the modelled hardware terms.
var paperHook = regexp.MustCompile(`(?i)§|paper|ceio|ddio|sigcomm`)

// TestPackageDocs is the CI doc-comment check of the godoc audit: no
// package without a doc comment, and no internal package whose doc
// fails to tie it back to the paper.
func TestPackageDocs(t *testing.T) {
	for _, dir := range goPackageDirs(t, ".") {
		doc := packageDoc(t, dir)
		if strings.TrimSpace(doc) == "" {
			t.Errorf("%s: missing package doc comment", dir)
			continue
		}
		if len(strings.TrimSpace(doc)) < 80 {
			t.Errorf("%s: package doc too thin (%d chars); describe the package's role and paper counterpart", dir, len(doc))
		}
		if strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "./internal/") {
			if !paperHook.MatchString(doc) {
				t.Errorf("%s: package doc states no paper-side counterpart (want a § reference or paper/CEIO mention per DESIGN.md)", dir)
			}
		}
	}
}

// TestEveryExperimentDocumented asserts EXPERIMENTS.md carries a
// backticked section tag for every experiment the bench can run by
// name, so `ceio-bench <name>` output is never undocumented. "all" is
// the meta-runner over the rest and needs no section of its own.
func TestEveryExperimentDocumented(t *testing.T) {
	doc := readFile(t, "EXPERIMENTS.md")
	for _, name := range experiments.Names() {
		if name == "all" {
			continue
		}
		if !strings.Contains(doc, "(`"+name+"`") {
			t.Errorf("experiment %q has no EXPERIMENTS.md section (want a \"(`%s`\" tag in a heading)", name, name)
		}
	}
}

// TestBenchLedgerRowsExist asserts every row of BENCH_fleet.json names
// a benchmark the harness still defines — a Benchmark function in
// bench_test.go, or BenchmarkExperiments/<name> for an experiment in the
// registry — so the ledger cannot keep rows for deleted benchmarks.
func TestBenchLedgerRowsExist(t *testing.T) {
	var ledger struct {
		Macro, Micro []struct{ Name string }
	}
	if err := json.Unmarshal([]byte(readFile(t, "BENCH_fleet.json")), &ledger); err != nil {
		t.Fatal(err)
	}
	src := readFile(t, "bench_test.go")
	names := experiments.Names()
	names = names[:len(names)-1] // drop "all", which has no sub-benchmark
	for _, row := range append(ledger.Macro, ledger.Micro...) {
		if exp, ok := strings.CutPrefix(row.Name, "BenchmarkExperiments/"); ok {
			if !slices.Contains(names, exp) {
				t.Errorf("ledger row %q: no experiment %q in the registry", row.Name, exp)
			}
		} else if !strings.Contains(src, "func "+row.Name+"(b *testing.B)") {
			t.Errorf("ledger row %q: no such benchmark in bench_test.go", row.Name)
		}
	}
	if len(ledger.Macro) == 0 {
		t.Fatal("BENCH_fleet.json has no macro rows")
	}
}

// TestRDCASeriesCatalogued asserts every rdca.* series an RDCA-mode run
// registers is catalogued in OBSERVABILITY.md. TestEverySeriesDocumented
// already covers all registries; this narrower check pins the RDCA
// datapath's own telemetry surface and fails loudly if its registration
// path stops firing (the broad test would silently shrink instead).
func TestRDCASeriesCatalogued(t *testing.T) {
	doc := readFile(t, "OBSERVABILITY.md")
	sim, err := ceio.NewSimulatorE(ceio.DefaultConfig(), ceio.ArchRDCA)
	if err != nil {
		t.Fatal(err)
	}
	var rdcaSeries []string
	for _, m := range sim.Metrics().Metrics() {
		if strings.HasPrefix(m.Name, "rdca.") {
			rdcaSeries = append(rdcaSeries, m.Name)
		}
	}
	if len(rdcaSeries) < 10 {
		t.Fatalf("only %d rdca.* series registered; RDCA telemetry wiring regressed", len(rdcaSeries))
	}
	for _, n := range rdcaSeries {
		if !strings.Contains(doc, "`"+n+"`") {
			t.Errorf("rdca series %q is not catalogued in OBSERVABILITY.md", n)
		}
	}
}

// TestEveryPackageInArchitectureMap asserts ARCHITECTURE.md names every
// internal package and every command, so the subsystem map cannot drift
// behind the tree. Example directories are covered collectively by the
// entry-points section and individually by README.md.
func TestEveryPackageInArchitectureMap(t *testing.T) {
	doc := readFile(t, "ARCHITECTURE.md")
	for _, dir := range goPackageDirs(t, ".") {
		dir = strings.TrimPrefix(dir, "./")
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "cmd/") {
			continue
		}
		if !strings.Contains(doc, "`"+dir+"`") {
			t.Errorf("package %s is not named in ARCHITECTURE.md", dir)
		}
	}
}

// TestFullResultsCoverExperimentsDoc asserts full_results.txt is the
// recorded run behind EXPERIMENTS.md: every decimal number in a table
// row there appears in it, verbatim or rounded to the doc's decimal
// places. The full run must also render the same table titles, in the
// same order, as the quick_results.txt golden, so it cannot lag the
// experiment registry.
func TestFullResultsCoverExperimentsDoc(t *testing.T) {
	full := readFile(t, "full_results.txt")
	decimal := regexp.MustCompile(`\d+\.\d+`)
	printed := map[string]bool{}
	for _, s := range decimal.FindAllString(full, -1) {
		v, _ := strconv.ParseFloat(s, 64)
		for places := len(s) - strings.IndexByte(s, '.') - 1; places >= 0; places-- {
			printed[strconv.FormatFloat(v, 'f', places, 64)] = true
		}
	}
	rows := regexp.MustCompile(`(?m)^\|.*$`).FindAllString(readFile(t, "EXPERIMENTS.md"), -1)
	if len(rows) == 0 {
		t.Fatal("no table rows in EXPERIMENTS.md")
	}
	for _, row := range rows {
		for _, s := range decimal.FindAllString(row, -1) {
			if !printed[s] {
				t.Errorf("EXPERIMENTS.md number %s is not in full_results.txt (row %q)", s, row)
			}
		}
	}

	title := regexp.MustCompile(`(?m)^== .* ==$`)
	f, q := title.FindAllString(full, -1), title.FindAllString(readFile(t, "quick_results.txt"), -1)
	if !slices.Equal(f, q) {
		t.Errorf("full_results.txt and quick_results.txt render different tables:\n%s\n---\n%s",
			strings.Join(f, "\n"), strings.Join(q, "\n"))
	}
}

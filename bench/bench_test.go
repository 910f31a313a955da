package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// shortScale shortens every workload's measured window about 100x, so the
// tests run each workload end to end in seconds.
const shortScale = 0.01

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// report is the command's output: the unit printed beside each metric
// and the final JSON line.
type report struct {
	units map[string]string
	final struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
}

func parseReport(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	rp := report{units: map[string]string{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rp.final); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 3 && f[0] != "#" {
			rp.units[f[0]] = f[2]
		}
	}
	return rp
}

// run executes one shortened workload and returns its result and report.
func run(t *testing.T, name string, o options) (*result, report) {
	t.Helper()
	w, ok := lookup(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	res, err := execute(w, o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if o.traced {
		if err := res.analyze(t.TempDir()); err != nil {
			t.Fatalf("%s: trace: %v", name, err)
		}
	}
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	return res, parseReport(t, out.String())
}

func TestWorkloadListMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var want []string
	for _, w := range f.Workloads {
		want = append(want, w.Name)
	}
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("command workloads %v, BENCHMARK.json workloads %v", got, want)
	}
}

func TestMetricNames(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) == 0 || len(f.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(f.EndToEnd))
	}
	if len(f.PerLayer) == 0 || len(f.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(f.PerLayer))
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]declared(nil), f.EndToEnd...), f.PerLayer...) {
		if !nameRe.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRe)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// checkDeclared asserts the report carries exactly the declared metrics in
// its JSON line, each with the declared unit, and prints each one with that
// unit as well.
func checkDeclared(t *testing.T, name string, rp report, decl []declared) {
	t.Helper()
	if len(rp.final.Metrics) != len(decl) {
		t.Errorf("%s: JSON line has %d metrics, BENCHMARK.json declares %d", name, len(rp.final.Metrics), len(decl))
	}
	for _, d := range decl {
		m, ok := rp.final.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing from the JSON line", name, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, d.Name, m.Unit, d.Unit)
		}
		if u := rp.units[d.Name]; u != d.Unit {
			t.Errorf("%s: metric %s printed with unit %q, want %q", name, d.Name, u, d.Unit)
		}
	}
}

// TestShortenedWorkloads runs every workload end to end with its window
// shortened, untraced and traced: every slice must pass its oracles, and
// every declared metric must be reported with its unit.
func TestShortenedWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			_, rp := run(t, name, options{seed: 1, width: 2, scale: shortScale})
			if !rp.final.Correct || rp.final.Failed != 0 || rp.final.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d, want a clean run", rp.final.Correct, rp.final.Failed, rp.final.Attempted)
			}
			if u := rp.units["fail_ratio"]; u != "ratio" {
				t.Errorf("fail_ratio printed with unit %q", u)
			}
			checkDeclared(t, name, rp, f.EndToEnd)

			res, rp := run(t, name, options{seed: 1, width: 2, scale: shortScale, traced: true})
			if !rp.final.Correct || rp.final.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d, want a clean run", rp.final.Correct, rp.final.Failed)
			}
			if len(res.traced()) == 0 || len(res.untraced()) == 0 {
				t.Errorf("traced run made %d traced and %d untraced repetitions, want both", len(res.traced()), len(res.untraced()))
			}
			checkDeclared(t, name, rp, f.PerLayer)
			var shares float64
			for _, l := range layers {
				shares += res.selfShare(l)
			}
			if shares < 0.999 || shares > 1.001 {
				t.Errorf("layer self shares sum to %v, want 1", shares)
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ceio/internal/cache.(*LLC).TouchState":                      "cache",
		"ceio/internal/sim.(*Engine).dispatch":                       "sim",
		"ceio/internal/iosys.(*Machine).AddFlowE.func1 (inline)":     "iosys",
		"ceio/internal/runner.Map[go.shape.struct { ceio/x.y int }]": "runner",
		"ceio/internal/pkt.(*Pool).Get":                              "other",
		"runtime.mallocgc":                                           "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":               "runtime",
		"slices.pdqsortOrdered[go.shape.int]":                        "other",
		"main.(*churner).tick":                                       "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: bench
Type: cpu
Showing nodes accounting for 820000000ns, 100% of 820000000ns total
      flat  flat%   sum%        cum   cum%
330000000ns 40.24% 40.24% 350000000ns 42.68%  ceio/internal/cache.(*LLC).TouchState
50000000ns  6.10% 46.34% 50000000ns  6.10%  cmp.Less[go.shape.int] (inline)
         0     0% 46.34% 820000000ns   100%  runtime.main
`)
	flat, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if flat["ceio/internal/cache.(*LLC).TouchState"] != 330e6 || flat["cmp.Less[go.shape.int] (inline)"] != 50e6 || flat["runtime.main"] != 0 {
		t.Fatalf("parseTop = %v", flat)
	}
}

func TestTracerSliceIDs(t *testing.T) {
	tr := &tracer{}
	tr.begin("window")
	tr.begin("slice")
	tr.begin("add_flow")
	tr.end()
	tr.end()
	tr.begin("verify")
	tr.end()
	tr.end()
	want := []span{
		{ID: 1, Parent: 0, Slice: 0, Name: "window"},
		{ID: 2, Parent: 1, Slice: 2, Name: "slice"},
		{ID: 3, Parent: 2, Slice: 2, Name: "add_flow"},
		{ID: 4, Parent: 1, Slice: 0, Name: "verify"},
	}
	for i, s := range tr.spans {
		s.Start, s.End = 0, 0
		if s != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
	var nilTracer *tracer
	nilTracer.begin("slice") // untraced repetitions record nothing
	nilTracer.end()
}

func TestCLIRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "host-mix", "-seconds", "0"},
		{"-workload", "host-mix", "-trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := cli(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("cli(%v) = %d with output %q, want 2 and no result", args, code, out.String())
		}
	}
}

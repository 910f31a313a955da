package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// span is one traced call the benchmark made into a layer. Every span
// opened inside a timed slice carries that slice's ID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Slice  int    `json:"slice"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host ns since the run started
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory; they are written once,
// at exit. A nil tracer records nothing, so untraced repetitions run the
// same code without tracing cost.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of open spans, innermost last
	slice int   // ID of the open slice span, 0 outside slices
}

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	s := span{ID: len(t.spans) + 1, Name: name, Start: int64(time.Since(t.t0))}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	if name == "slice" {
		t.slice = s.ID
	}
	s.Slice = t.slice
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, s)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
	if t.spans[i].Name == "slice" {
		t.slice = 0
	}
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// layers are the per-layer self-time buckets: the simulator's packages by
// module name, the Go runtime, and everything else (the standard library,
// the benchmark itself, and the smaller internal packages).
var layers = []string{
	"sim", "cache", "pcie", "ring", "flowsteer", "transport", "iosys", "core",
	"baseline", "rdca", "dataplane", "fabric", "fleet", "runner", "invariants",
	"stats", "telemetry", "runtime", "other",
}

// runtimeHelpers matches the runtime functions the compiler calls on a
// layer's behalf — map operations, hashing, memory moves and compares,
// slice growth, interface conversions. pprof hides them, so their samples
// count toward the calling layer; allocation, garbage collection and
// scheduling stay in the runtime layer.
const runtimeHelpers = `^(runtime\.(map|mem|aeshash|strhash|typedmemmove|typedslicecopy|growslice|conv|assert|typeAssert|strequal|interequal|nilinterequal|efaceeq|ifaceeq)|internal/runtime/maps\.)`

// layerOf maps a profiled function name to its layer: the package of the
// function, which for a leaf sample is where the CPU time was spent.
func layerOf(fn string) string {
	pkg := strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	switch {
	case strings.HasPrefix(pkg, "ceio/internal/"):
		name := strings.TrimPrefix(pkg, "ceio/internal/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// analyze writes the traced run's artifacts to dir — spans.json, the
// merged CPU profile cpu.pprof, and the per-layer self-time table
// layers.tsv — and computes the layer shares from the profile with the
// toolchain's pprof.
func (res *result) analyze(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{res.workload, res.opts.seed, res.tr.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), spans, 0o644); err != nil {
		return err
	}
	var parts []string
	for i, r := range res.traced() {
		p := filepath.Join(dir, fmt.Sprintf("cpu-rep%d.pprof", i))
		if err := os.WriteFile(p, r.profile, 0o644); err != nil {
			return err
		}
		parts = append(parts, p)
	}
	merged := filepath.Join(dir, "cpu.pprof")
	if _, err := pprofTool(append([]string{"-proto", "-output", merged}, parts...)...); err != nil {
		return err
	}
	for _, p := range parts {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	top, err := pprofTool("-top", "-unit=ns", "-nodefraction=0", "-nodecount=1000000", "-hide="+runtimeHelpers, merged)
	if err != nil {
		return err
	}
	flat, err := parseTop(top)
	if err != nil {
		return err
	}
	res.layerNs = map[string]float64{}
	for fn, ns := range flat {
		res.layerNs[layerOf(fn)] += ns
	}
	var tsv bytes.Buffer
	fmt.Fprintf(&tsv, "layer\tself_s\tself_share\tprofile_ns\n")
	for _, l := range layers {
		fmt.Fprintf(&tsv, "%s\t%.6f\t%.6f\t%.0f\n", l, res.selfSeconds(l), res.selfShare(l), res.layerNs[l])
	}
	return os.WriteFile(filepath.Join(dir, "layers.tsv"), tsv.Bytes(), 0o644)
}

// pprofTool runs `go tool pprof` with args and returns its standard output.
func pprofTool(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

// parseTop reads the flat nanoseconds per function from `pprof -top
// -unit=ns` output.
func parseTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing pprof row %q: %v", sc.Text(), err)
		}
		flat[strings.Join(f[5:], " ")] += ns
	}
	if !header {
		return nil, fmt.Errorf("pprof -top printed no table:\n%s", out)
	}
	return flat, sc.Err()
}

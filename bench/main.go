// Command bench is the repository benchmark of the CEIO simulator. It runs
// one named workload at a given seed through the simulator's public
// surfaces — iosys machines, the fleet rack, the invariant auditors and the
// telemetry registries — repeating the workload's fixed simulated scenario
// for a budget of host seconds. It prints every end-to-end metric with its
// unit, host times scaled to a nominal host speed (yardstick.go), checks
// the modelled outputs against invariants and oracles on every slice, and
// exits non-zero when any check fails. A traced run
// (-trace 1) reports the per-layer split instead: spans around the
// benchmark's own calls into each layer, plus a CPU profile grouped by the
// package of each sample's leaf function. bench/README.md lists the
// workloads, the metrics and which layer moves which metric.
//
//	bash bench/run.sh -workload host-mix -seed 1 -seconds 28 -trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli parses the flags, runs the workload and prints the report. It
// returns the process exit code: 0 when every check passed, 1 when a
// check failed or the run could not complete, 2 on bad usage.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: flow admission offsets, the churn schedule and Config.Seed")
	seconds := fs.Float64("seconds", 28, "host seconds to spend repeating the workload")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs traced and reports the per-layer metrics,\nwriting spans.json, cpu.pprof and layers.tsv to .bench_build/trace/<workload>-seed<seed>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "bench: -seconds must be positive, got %v\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	o := options{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		width:  min(2, runtime.NumCPU()),
		scale:  1,
	}
	res, err := execute(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if o.traced {
		dir := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", w.name, o.seed))
		if err := res.analyze(dir); err != nil {
			fmt.Fprintf(stderr, "bench: %s: trace: %v\n", w.name, err)
			return 1
		}
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "bench: writing report: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

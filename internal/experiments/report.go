// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.3 Fig. 4; §6.2 Fig. 9, Fig. 10, Table 2; §6.3 Fig. 11,
// Fig. 12, Table 3, Table 4; §6.3 "limited benefit" scenarios), plus the
// ablation studies of CEIO's individual design choices. Each runner
// returns Tables whose rows mirror the series the paper reports.
package experiments

import (
	"fmt"
	"io"

	"ceio/internal/iosys"
	"ceio/internal/render"
	"ceio/internal/runner"
	"ceio/internal/sim"
	"ceio/internal/telemetry"
	"ceio/internal/workload"
)

// Table is a renderable result table.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Render writes the table in aligned plain text (shared renderer, so
// bench tables and CLI reports format identically).
func (t Table) Render(w io.Writer) {
	render.AlignedTable(w, t.Title, t.Note, t.Header, t.Rows)
}

// RenderCSV writes the table as CSV with a leading title comment, for
// plotting pipelines.
func (t Table) RenderCSV(w io.Writer) error {
	return render.CSVTable(w, t.Title, t.Header, t.Rows)
}

// timelineTable renders sampled series as a "Timeline — " table (the
// prefix ceio-bench -timeline-out diverts on), laid out by
// telemetry.Grid like every other time-series dump.
func timelineTable(title, note string, ticks []sim.Time, series []*telemetry.Series) Table {
	header, rows := telemetry.Grid(ticks, series)
	return Table{Title: "Timeline — " + title, Note: note, Header: header, Rows: rows}
}

// Config controls experiment durations. Quick mode shrinks sweeps and
// windows for use inside Go benchmarks; Full mode matches the defaults
// used to produce EXPERIMENTS.md.
type Config struct {
	Machine  iosys.Config
	Scenario workload.ScenarioConfig
	Warmup   sim.Time // static-run warm-up
	Measure  sim.Time // static-run measurement window
	Quick    bool

	// Pool, when non-nil, fans independent simulation runs across its
	// workers. A nil pool runs everything serially on the caller. Either
	// way results are collected into index-ordered slots, so rendered
	// output is byte-identical across parallelism levels.
	Pool *runner.Pool

	// Seeds is the number of seed replicas per measurement cell
	// (Machine.Seed, Machine.Seed+1, ...). Zero or one means a single
	// run; above one, scalar metrics report min/mean/max across seeds
	// and latency histograms are merged before taking percentiles.
	Seeds int

	// FleetHosts, when positive, restricts the fleet experiment to a
	// single rack size instead of its rack-size sweep (the -hosts flag).
	FleetHosts int

	// SampleEvery, when positive, attaches a telemetry sampler to the
	// tenants and dynamic-scenario (fig4, fig10) measurement cells and
	// appends one timeline table per cell: per-tenant occupancy, ways
	// and miss ratio for tenants; involved Mpps, total Gbps and LLC miss
	// rate per interval for the dynamic scenarios.
	// Sampling is read-only and clocked on simulated time, so enabling
	// it never changes the measured rows and the sampled series stay
	// byte-identical across -parallel levels.
	SampleEvery sim.Time
}

// Default returns the full-length experiment configuration.
func Default() Config {
	return Config{
		Machine:  iosys.DefaultConfig(),
		Scenario: workload.DefaultScenarioConfig(),
		Warmup:   10 * sim.Millisecond,
		Measure:  25 * sim.Millisecond,
	}
}

// QuickConfig returns a configuration small enough for `go test -bench`.
func QuickConfig() Config {
	c := Default()
	c.Quick = true
	c.Warmup = 3 * sim.Millisecond
	c.Measure = 7 * sim.Millisecond
	c.Scenario = workload.ScenarioConfig{
		Epoch:  5 * sim.Millisecond,
		Epochs: 3,
		Warmup: 2 * sim.Millisecond,
		Sample: 250 * sim.Microsecond,
	}
	return c
}

func f2(v float64) string  { return render.F2(v) }
func pct(v float64) string { return render.Pct(v) }
func us(ns float64) string { return render.Us(ns) }

// reduction formats latency "v (down x.yyx)" relative to base.
func reduction(v, base float64) string {
	if v <= 0 {
		return us(v)
	}
	return fmt.Sprintf("%s (↓ %.2fx)", us(v), base/v)
}

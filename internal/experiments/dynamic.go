package experiments

import (
	"fmt"
	"strings"

	"ceio/internal/telemetry"
	"ceio/internal/workload"
)

// fig4Methods are the motivation experiment's methods (no CEIO yet).
var fig4Methods = []workload.Method{workload.MethodBaseline, workload.MethodHostCC, workload.MethodShRing}

// fig10Methods add CEIO for the end-to-end comparison.
var fig10Methods = []workload.Method{workload.MethodBaseline, workload.MethodHostCC, workload.MethodShRing, workload.MethodCEIO}

// dynamicTables runs both dynamic scenarios (flow distribution, then
// network burst) for the given methods as a single parallel batch and
// lays out mean/worst CPU-involved throughput and the miss rate,
// alongside the "expected performance" reference the paper computes
// from the number of CPU-involved flows and the single-core miss-free
// throughput.
func dynamicTables(cfg Config, titles [2]string, methods []workload.Method) []Table {
	// Cells are (scenario, method), methods innermost.
	res := runCells(cfg, 2*len(methods), func(i int, c Config) workload.DynamicResult {
		me := methods[i%len(methods)]
		if i >= len(methods) {
			return workload.RunNetworkBurst(me, c.Machine, c.Scenario, c.SampleEvery)
		}
		return workload.RunDynamicDistribution(me, c.Machine, c.Scenario, c.SampleEvery)
	})

	// Expected line: with 8 CPU-involved flows sustained (the scenarios
	// keep 8 involved on average at their start).
	expected := workload.ExpectedMpps(cfg.Machine, 8)
	var tables []Table
	k := 0
	for _, title := range titles {
		tb := Table{
			Title:  title,
			Header: []string{"method", "mean Mpps", "worst interval Mpps", "LLC miss"},
			Note:   fmt.Sprintf("Expected performance with 8 involved flows and infinite LLC: %.2f Mpps.", expected),
		}
		for _, me := range methods {
			reps := res[k]
			k++
			tb.Rows = append(tb.Rows, []string{
				string(me),
				statOf(reps, func(r workload.DynamicResult) float64 { return r.InvolvedMpps }).f2(),
				statOf(reps, func(r workload.DynamicResult) float64 { return r.WorstMpps }).f2(),
				statOf(reps, func(r workload.DynamicResult) float64 { return r.MissRate }).pct(),
			})
		}
		tables = append(tables, tb)
	}
	if cfg.SampleEvery > 0 {
		for i, reps := range res {
			tables = append(tables, dynamicTimeline(titles[i/len(methods)], methods[i%len(methods)], reps))
		}
	}
	return tables
}

// dynamicTimeline renders one cell's Timeline series as a timeline
// table titled by the figure part of its summary table's title. With
// several seed replicas each rate reports the cross-seed mean plus
// _min/_max band columns; intervals align by index, since every replica
// samples on the same cadence.
func dynamicTimeline(title string, method workload.Method, reps []workload.DynamicResult) Table {
	rates := func(r workload.DynamicResult) [3][]float64 {
		return [3][]float64{r.Timeline.InvolvedMpps, r.Timeline.TotalGbps, r.Timeline.MissRate}
	}
	ticks := reps[0].Timeline.Ticks
	for _, r := range reps {
		ticks = ticks[:min(len(ticks), len(r.Timeline.Ticks))]
	}
	var cols []*telemetry.Series
	for k, name := range [3]string{"involved_mpps", "total_gbps", "llc_miss_rate"} {
		mean := &telemetry.Series{ID: name}
		lo := &telemetry.Series{ID: name + "_min"}
		hi := &telemetry.Series{ID: name + "_max"}
		for i := range ticks {
			st := statOf(reps, func(r workload.DynamicResult) float64 { return rates(r)[k][i] })
			mean.Pts = append(mean.Pts, st.Mean)
			lo.Pts = append(lo.Pts, st.Min)
			hi.Pts = append(hi.Pts, st.Max)
		}
		cols = append(cols, mean)
		if len(reps) > 1 {
			cols = append(cols, lo, hi)
		}
	}
	figure, _, _ := strings.Cut(title, " — ")
	return timelineTable(figure+" — "+string(method),
		"Sampled on simulated time; involved Mpps, total Gbps and LLC miss rate per interval.", ticks, cols)
}

// Fig4 reproduces Figure 4, the motivation experiment: the fundamental
// limitations of HostCC (slow response) and ShRing (fixed buffer) under
// (a) dynamic flow distribution and (b) network burst.
func Fig4(cfg Config) []Table {
	return dynamicTables(cfg, [2]string{
		"Figure 4a — I/O degradation under dynamic flow distribution (motivation)",
		"Figure 4b — I/O degradation under network burst (motivation)",
	}, fig4Methods)
}

// Fig10 reproduces Figure 10: the same dynamic scenarios including CEIO,
// which avoids both limitations (paper: up to 2.0x / 2.9x speedup).
func Fig10(cfg Config) []Table {
	return dynamicTables(cfg, [2]string{
		"Figure 10a — I/O performance in dynamic flow distribution",
		"Figure 10b — I/O performance in network burst",
	}, fig10Methods)
}

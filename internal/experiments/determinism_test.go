package experiments

import (
	"strings"
	"testing"

	"ceio/internal/iosys"
	"ceio/internal/runner"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// microCfg is small enough to run a suite of experiments several times
// inside a unit test; determinism does not depend on window length.
func microCfg() Config {
	c := QuickConfig()
	c.Warmup = 150 * sim.Microsecond
	c.Measure = 400 * sim.Microsecond
	c.Scenario = workload.ScenarioConfig{
		Epoch:  400 * sim.Microsecond,
		Epochs: 2,
		Warmup: 100 * sim.Microsecond,
		Sample: 100 * sim.Microsecond,
	}
	return c
}

// renderSuite runs the named experiments and renders tables and CSV
// into one string.
func renderSuite(t *testing.T, cfg Config, names []string) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range names {
		tables, ok := ByName(name, cfg)
		if !ok {
			t.Fatalf("unknown experiment %q", name)
		}
		for _, tb := range tables {
			tb.Render(&sb)
			if err := tb.RenderCSV(&sb); err != nil {
				t.Fatalf("csv render: %v", err)
			}
		}
	}
	return sb.String()
}

// TestParallelOutputByteIdentical guards the whole parallel driver: the
// rendered tables and CSV of a suite of experiments must be
// byte-identical between -parallel 1 and -parallel 8 at the same seed,
// because every run owns its engine and results land in index-ordered
// slots.
func TestParallelOutputByteIdentical(t *testing.T) {
	names := []string{"fig9", "fig10", "burst", "table4", "tenants", "cores", "pipelines", "fleet", "rdca"}

	serial := renderSuite(t, microCfg(), names) // nil pool: fully serial

	pool := runner.NewPool(8)
	defer pool.Close()
	par := microCfg()
	par.Pool = pool
	parallel := renderSuite(t, par, names)

	if serial != parallel {
		t.Fatalf("parallel output diverges from serial output:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Figure 9") || !strings.Contains(serial, "Burst sensitivity") {
		t.Fatal("suite did not render the expected tables")
	}
}

// TestParallelSeedsByteIdentical extends the guarantee to multi-seed
// replication: cell×seed jobs execute in arbitrary order but aggregate
// deterministically.
func TestParallelSeedsByteIdentical(t *testing.T) {
	run := func(workers int) string {
		cfg := microCfg()
		cfg.Seeds = 3
		pool := runner.NewPool(workers)
		defer pool.Close()
		cfg.Pool = pool
		return renderSuite(t, cfg, []string{"fig9", "burst"})
	}
	serial, parallel := run(1), run(8)
	if serial != parallel {
		t.Fatalf("multi-seed parallel output diverges:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	// Multi-seed scalar cells render as min/mean/max triples.
	if !strings.Contains(serial, "/") {
		t.Fatal("expected min/mean/max cells in multi-seed output")
	}
}

// TestSampledTimelineParallelByteIdentical extends the byte-identity
// guarantee to telemetry sampling: with SampleEvery set, the tenants
// and dynamic-scenario timeline tables are clocked on simulated time
// only, so a -parallel 8 run renders them exactly as a serial run does.
func TestSampledTimelineParallelByteIdentical(t *testing.T) {
	run := func(workers int) string {
		cfg := microCfg()
		cfg.SampleEvery = 100 * sim.Microsecond
		pool := runner.NewPool(workers)
		defer pool.Close()
		cfg.Pool = pool
		return renderSuite(t, cfg, []string{"tenants", "fig4"})
	}
	serial, parallel := run(1), run(8)
	if serial != parallel {
		t.Fatalf("sampled timeline output diverges:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Timeline — dynamic repartitioning") {
		t.Fatal("sampled run did not render timeline tables")
	}
	if !strings.Contains(serial, `cache.llc.ddio.occupancy_bytes{tenant="kv"}`) {
		t.Fatal("timeline tables missing per-tenant occupancy series")
	}
	if !strings.Contains(serial, "Timeline — Figure 4b — ShRing") {
		t.Fatal("sampled run did not render dynamic-scenario timeline tables")
	}
}

// TestSeedsChangeResults sanity-checks that replicas actually carry
// distinct seeds. Most experiments are deterministic functions of the
// machine (seed-invariant by design), so this probes at two levels: the
// replica configs themselves, and a run that consumes the engine's RNG
// (Fig. 12's random flow rotation).
func TestSeedsChangeResults(t *testing.T) {
	cfg := microCfg()
	cfg.Seeds = 3
	reps := cfg.replicas()
	if len(reps) != 3 {
		t.Fatalf("replicas: %d, want 3", len(reps))
	}
	for i, r := range reps {
		if want := cfg.Machine.Seed + int64(i); r.Machine.Seed != want {
			t.Fatalf("replica %d seed %d, want %d", i, r.Machine.Seed, want)
		}
	}

	// LineFSCopy's probabilistic app-buffer misses consume the engine's
	// RNG, so its latency profile is seed-sensitive.
	runLat := func(c Config) float64 {
		m := iosys.NewMachine(c.Machine, workload.NewDatapath(workload.MethodBaseline))
		for id := 1; id <= 4; id++ {
			m.AddFlow(workload.LineFSCopy(id, 1024))
		}
		measureWindow(m, c.Warmup, c.Measure)
		return mergedLatency(m).Mean()
	}
	a, b := runLat(reps[0]), runLat(reps[1])
	if a == b {
		t.Fatalf("RNG-dependent run identical across seeds (%v); engine seed not applied", a)
	}
	// And the same seed reproduces exactly.
	if a2 := runLat(reps[0]); a != a2 {
		t.Fatalf("same seed produced %v then %v", a, a2)
	}
}

// TestSingleSeedFormatUnchanged pins that Seeds<=1 renders exactly the
// legacy single-value cells (no min/mean/max separators) so existing
// output, goldens, and downstream parsers are unaffected.
func TestSingleSeedFormatUnchanged(t *testing.T) {
	cfg := microCfg()
	tb := Burstiness(cfg)
	for _, row := range tb.Rows {
		for _, cell := range row {
			if strings.Contains(cell, "/") && !strings.Contains(cell, "µs on") {
				t.Fatalf("single-seed cell %q contains a replica separator", cell)
			}
		}
	}
}

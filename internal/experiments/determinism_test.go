package experiments

import (
	"strings"
	"sync"
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

// sampledRegistry holds every registry experiment rendered at microCfg
// with 100us sampling, twice: one by one without a pool, and as "all" on
// an 8-wide pool. It is rendered once and read by the two tests below.
var sampledRegistry struct {
	once             sync.Once
	serial, parallel string
}

func renderSampledRegistry(t *testing.T) (serial, parallel string) {
	t.Helper()
	r := &sampledRegistry
	r.once.Do(func() {
		names := Names()
		cfg := microCfg()
		cfg.SampleEvery = 100 * sim.Microsecond
		serial := renderSuite(t, cfg, names[:len(names)-1]) // nil pool: fully serial

		pool := runner.NewPool(8)
		defer pool.Close()
		cfg.Pool = pool
		r.serial, r.parallel = serial, renderSuite(t, cfg, []string{"all"})
	})
	if r.serial == "" || r.parallel == "" {
		t.Fatal("rendering the sampled registry failed")
	}
	return r.serial, r.parallel
}

// TestParallelOutputByteIdentical guards the whole parallel driver: every
// registry experiment, sampled timeline tables included, rendered one by
// one without a pool must be byte-identical to "all" on an 8-wide pool,
// because every run owns its engine and results land in indexed slots.
func TestParallelOutputByteIdentical(t *testing.T) {
	serial, parallel := renderSampledRegistry(t)
	if serial != parallel {
		t.Fatalf("\"all\" on an 8-wide pool diverges from the serial run:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestSampledTimelineParallelByteIdentical checks that the byte-identity
// above covers telemetry sampling: with SampleEvery set, the tenants and
// dynamic-scenario timeline tables, clocked on simulated time only, are
// rendered by both the serial and the 8-wide run.
func TestSampledTimelineParallelByteIdentical(t *testing.T) {
	serial, parallel := renderSampledRegistry(t)
	for _, want := range []string{
		"Timeline — dynamic repartitioning",
		`cache.llc.ddio.occupancy_bytes{tenant="kv"}`,
		"Timeline — Figure 4b — ShRing",
	} {
		if !strings.Contains(serial, want) || !strings.Contains(parallel, want) {
			t.Errorf("sampled suite output lacks %q", want)
		}
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
		return m.Latency.Mean()
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

// measureWindow runs warm-up, resets counters, runs the measurement
// window, and leaves the machine stopped at the window's end.
func measureWindow(m *iosys.Machine, warmup, measure sim.Time) {
	m.Run(m.Eng.Now() + warmup)
	m.ResetWindow()
	m.Run(m.Eng.Now() + measure)
}

package fleet

import (
	"fmt"
	"strings"
	"testing"

	"ceio/internal/faults"
	"ceio/internal/runner"
	"ceio/internal/sim"
)

// runDense advances the rack by d with a barrier at every grid point,
// as the fixed-epoch loop did before the planner: the reference the
// planner must reproduce exactly.
func runDense(f *Fleet, d sim.Time) {
	g := epochGrid{from: f.now, end: f.now + d, step: f.epochLen}
	for f.now < g.end {
		f.runEpoch(g, min(f.now+f.epochLen, g.end))
	}
}

// inChunks splits a run into RunFor-sized pieces that are not multiples
// of the propagation delay, so every later grid is offset from the
// first and audits and fault edges fall between grid points.
func inChunks(run func(f *Fleet, d sim.Time)) func(f *Fleet, d sim.Time) {
	chunks := []sim.Time{137_531, 999, sim.Microsecond, 62_250, 1, 250_003}
	return func(f *Fleet, d sim.Time) {
		for i := 0; d > 0; i++ {
			c := min(chunks[i%len(chunks)], d)
			run(f, c)
			d -= c
		}
	}
}

// The barrier planner is an optimisation, not a model change: under
// crash, port-flap and fabric-cut episodes, a tail-dropping 4 KiB
// switch buffer, a slow fabric, sparse probes, RunFor lengths off the
// epoch grid, and at pool widths 1 and 8, a rack that executes only the
// planned barriers reports exactly what the same rack reports with a
// barrier at every grid point.
func TestPlannerMatchesDenseStepping(t *testing.T) {
	pool := runner.NewPool(8)
	defer pool.Close()
	plans := []faults.Plan{
		{HostCrash: faults.OneShot(200*sim.Microsecond, 300*sim.Microsecond)},
		{PortFlap: faults.Episode{PeriodNs: 310_000, DurationNs: 45_500, PhaseNs: 123_457}, PortFlapPort: 1},
		{FabricCut: faults.OneShot(150_250, 200*sim.Microsecond), FabricCutFactor: 0.1},
		{HostCrash: faults.Episode{PeriodNs: 700_000, DurationNs: 150_000, PhaseNs: 480_001}},
		// Windows shorter than an epoch: a planner that did not wake for
		// their edges would never apply them.
		{PortFlap: faults.Episode{PeriodNs: 97_000, DurationNs: 700, PhaseNs: 50_300}, PortFlapPort: 4},
		{FabricCut: faults.Episode{PeriodNs: 89_000, DurationNs: 900, PhaseNs: 30_100}, FabricCutFactor: 0.5},
	}
	cases := []struct {
		name string
		cfg  func(*Config)
	}{
		{"faults", func(c *Config) { c.Plans = plans }},
		{"tiny-buffer", func(c *Config) { c.Plans = plans; c.Fabric.BufBytes = 4 << 10 }},
		// Sparse barriers: with the default 100µs probe period most
		// grid points are empty, so a fault edge or an audit the planner
		// failed to bound would land late.
		{"sparse", func(c *Config) { c.Plans = plans; c.ProbePeriod = 100 * sim.Microsecond }},
		// A slow fabric keeps frames queued behind the flapped port, so
		// the instant its service restarts is observable.
		{"slow-fabric", func(c *Config) { c.Plans = plans; c.Fabric.GbpsPerPort = 0.05 }},
		{"fault-free", func(c *Config) {}},
	}
	for _, tc := range cases {
		for _, p := range []*runner.Pool{nil, pool} {
			t.Run(fmt.Sprintf("%s/pool=%v", tc.name, p != nil), func(t *testing.T) {
				mk := func(run func(f *Fleet, d sim.Time)) string {
					cfg := testConfig(6)
					cfg.Pool = p
					tc.cfg(&cfg)
					return rackFingerprint(t, cfg, 18, 1500*sim.Microsecond, inChunks(run))
				}
				dense, planned := mk(runDense), mk((*Fleet).RunFor)
				if dense != planned {
					t.Fatalf("planner diverged from dense stepping:\n--- dense ---\n%s--- planned ---\n%s", dense, planned)
				}
			})
		}
	}
}

// The planner must actually skip: on a quiet rack most grid points are
// empty, and every grid point is either executed or counted skipped.
func TestPlannerSkipsEmptyBarriers(t *testing.T) {
	f, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	addTestFlows(t, f, 8)
	f.RunFor(500 * sim.Microsecond)
	if grid := uint64(500); f.barriers+f.skipped != grid {
		t.Fatalf("barriers %d + skipped %d != %d grid points", f.barriers, f.skipped, grid)
	}
	if f.skipped < f.barriers {
		t.Fatalf("planner ran %d barriers and skipped only %d", f.barriers, f.skipped)
	}
}

// A host that sends a frame outside hostRecv escapes the planner's
// bound; the barrier must refuse to inject it late and name the shard.
func TestLookaheadGuardPanics(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	h := f.hosts[0]
	h.M.Eng.At(15_500, func() { h.send(f.ctlPort, probeBytes, netMsg{kind: kProbeRep}) })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "host shard 0") || !strings.Contains(msg, "15.500µs") {
			t.Fatalf("recovered %q, want a lookahead panic naming host shard 0 and its 15.5µs frame", msg)
		}
	}()
	f.RunFor(100 * sim.Microsecond)
}

// Once warm, a fault-free rack steps its epochs without allocating:
// the planner, the barrier, the fabric, the inbox deliveries, the pool
// handoff and the fleet audit sweep all reuse their buffers.
func TestFleetSteadyStateZeroAlloc(t *testing.T) {
	for _, width := range []int{1, 2} {
		pool := runner.NewPool(width)
		cfg := testConfig(4)
		cfg.Pool = pool
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addTestFlows(t, f, 8)
		f.AttachAuditors(20 * sim.Microsecond)
		// Long enough for every host's packet pool and rings to reach
		// their high-water marks; growth there is the machine's, not
		// the barrier's.
		f.RunFor(5 * sim.Millisecond)
		if avg := testing.AllocsPerRun(20, func() { f.RunFor(100 * sim.Microsecond) }); avg != 0 {
			t.Errorf("pool width %d: RunFor(100µs) allocates %.2f objects per call, want 0", width, avg)
		}
		pool.Close()
	}
}

package fleet

import (
	"bytes"
	"testing"

	"ceio/internal/faults"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// testConfig returns a small rack tuned for fast unit tests: tight probe
// cadence (30µs detection), short handshake RTT, and a drain deadline
// well past the detection time.
func testConfig(hosts int) Config {
	cfg := DefaultConfig(hosts, workload.MethodCEIO)
	cfg.ProbePeriod = 10 * sim.Microsecond
	cfg.DrainDeadline = 200 * sim.Microsecond
	cfg.MigrationRTT = 2 * sim.Microsecond
	cfg.RetryBase = 5 * sim.Microsecond
	return cfg
}

// addTestFlows places n flows (2:1 KV to LineFS mix) and returns their IDs.
func addTestFlows(t *testing.T, f *Fleet, n int) []int {
	t.Helper()
	var ids []int
	for id := 1; id <= n; id++ {
		var err error
		if id%3 == 0 {
			err = f.AddFlowE(workload.LineFS(id, 1024, 256))
		} else {
			err = f.AddFlowE(workload.ERPCKV(id, 144, workload.DPDK))
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// Placement is a pure function of (flow ID, live host set): two
// identically configured racks place every flow on the same host, flows
// spread across the rack, and every placement lands on a live host.
func TestPlacementDeterministicAndSpread(t *testing.T) {
	build := func() *Fleet {
		f, err := New(testConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		addTestFlows(t, f, 32)
		return f
	}
	a, b := build(), build()
	used := make(map[int]bool)
	for id := 1; id <= 32; id++ {
		ha, hb := a.HostOf(id), b.HostOf(id)
		if ha != hb {
			t.Fatalf("flow %d placed on host %d in one rack, %d in the other", id, ha, hb)
		}
		if ha < 0 || ha >= 4 {
			t.Fatalf("flow %d placed on invalid host %d", id, ha)
		}
		if !a.Host(ha).Live() {
			t.Fatalf("flow %d placed on non-live host %d", id, ha)
		}
		used[ha] = true
	}
	if len(used) < 3 {
		t.Fatalf("rendezvous hash used only %d of 4 hosts for 32 flows", len(used))
	}
	if err := a.AddFlowE(workload.ERPCKV(1, 144, workload.DPDK)); err == nil {
		t.Fatal("duplicate flow ID accepted")
	}
}

// A host crash must be detected via missed probes, and every victim flow
// re-steered to a survivor before its drain deadline; after the crash
// window closes the balancer revives the host and rebalances rendezvous
// homes back. Invariants (including fleet credit conservation through
// the migration handshake) hold throughout.
func TestFailoverMigratesAndRecoveryRebalances(t *testing.T) {
	cfg := testConfig(4)
	// Host 0 dies at 300µs for 600µs; probes detect in ~30µs.
	cfg.Plans = []faults.Plan{{HostCrash: faults.OneShot(300*sim.Microsecond, 600*sim.Microsecond)}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := addTestFlows(t, f, 24)
	audit := f.AttachAuditors(20 * sim.Microsecond)

	f.RunFor(250 * sim.Microsecond)
	victims := f.flowsOn(nil, 0)
	if len(victims) == 0 {
		t.Fatal("no flows placed on host 0; cannot exercise failover")
	}

	// Past crash + detection + drain deadline, mid crash window: every
	// victim must be off host 0 and on a live survivor.
	f.RunFor(400 * sim.Microsecond)
	if f.Stats.Crashes != 1 || f.Stats.Deaths != 1 {
		t.Fatalf("crashes=%d deaths=%d, want 1/1", f.Stats.Crashes, f.Stats.Deaths)
	}
	if got := int(f.Stats.Migrations); got != len(victims) {
		t.Fatalf("migrations=%d, want %d (one per victim)", got, len(victims))
	}
	for _, id := range victims {
		h := f.HostOf(id)
		if h == 0 || h < 0 {
			t.Fatalf("victim flow %d on host %d mid-crash, want a survivor", id, h)
		}
		if !f.Host(h).Live() {
			t.Fatalf("victim flow %d re-steered to dead host %d", id, h)
		}
	}
	if f.TTR.Count() == 0 {
		t.Fatal("no time-to-recover samples recorded")
	}
	if max := f.TimeToRecoverMax(); sim.Time(max) > cfg.DrainDeadline {
		t.Fatalf("slowest re-steer %dns blew the %v drain deadline", max, cfg.DrainDeadline)
	}

	// Past recovery + revival: host 0 is back and its rendezvous homes
	// returned.
	f.RunFor(800 * sim.Microsecond)
	if f.Stats.Recovers != 1 || f.Stats.Revivals != 1 {
		t.Fatalf("recovers=%d revivals=%d, want 1/1", f.Stats.Recovers, f.Stats.Revivals)
	}
	if f.Stats.Rebalances == 0 {
		t.Fatal("no flow rebalanced back to the revived host")
	}
	for _, id := range ids {
		want := f.pickHost(id).Index
		if got := f.HostOf(id); got != want {
			t.Fatalf("flow %d on host %d after recovery, rendezvous home is %d", id, got, want)
		}
	}

	f.Quiesce()
	f.RunFor(300 * sim.Microsecond)
	audit.Final()
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
	if audit.Fleet.Checks == 0 {
		t.Fatal("fleet auditor never swept")
	}
}

// With every host dead past the drain deadline, the fleet auditor must
// flag the stranded flows (flow-lost-after-drain), migration retry
// budgets must exhaust into the stranded counter — and revival must
// still rescue every flow afterwards.
func TestAllHostsDeadFlagsDrainDeadline(t *testing.T) {
	cfg := testConfig(2)
	cfg.DrainDeadline = 60 * sim.Microsecond
	cfg.RetryLimit = 2
	down := faults.OneShot(100*sim.Microsecond, 500*sim.Microsecond)
	cfg.Plans = []faults.Plan{{HostCrash: down}, {HostCrash: down}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := addTestFlows(t, f, 6)
	audit := f.AttachAuditors(20 * sim.Microsecond)

	// Mid blackout, past every deadline and retry budget.
	f.RunFor(500 * sim.Microsecond)
	if f.Stats.Stranded == 0 {
		t.Fatal("retry budgets never exhausted with zero live hosts")
	}
	if audit.Fleet.Count() == 0 {
		t.Fatal("fleet auditor missed the blown drain deadlines")
	}

	// Both hosts recover at 600µs; revival must rescue every flow.
	f.RunFor(500 * sim.Microsecond)
	for _, id := range ids {
		if h := f.HostOf(id); h < 0 || !f.Host(h).Live() {
			t.Fatalf("flow %d not rescued after revival (host %d)", id, h)
		}
	}
	// The per-host auditors must stay clean even through the blackout —
	// only the fleet-level drain rule may fire.
	for i, h := range audit.Hosts {
		if err := h.Err(); err != nil {
			t.Fatalf("host %d auditor: %v", i, err)
		}
	}
}

// Identical configuration must reproduce the run byte for byte — the
// rack report, balancer counters, and every host's metrics.
func TestFleetDeterministicReplay(t *testing.T) {
	run := func() (string, Stats) {
		cfg := testConfig(4)
		cfg.Plans = []faults.Plan{{HostCrash: faults.OneShot(200*sim.Microsecond, 300*sim.Microsecond)}}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addTestFlows(t, f, 16)
		f.RunFor(2 * sim.Millisecond)
		var buf bytes.Buffer
		f.WriteReport(&buf)
		return buf.String(), f.Stats
	}
	r1, s1 := run()
	r2, s2 := run()
	if s1 != s2 {
		t.Fatalf("balancer stats diverged:\n%+v\nvs\n%+v", s1, s2)
	}
	if r1 != r2 {
		t.Fatalf("rack report diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", r1, r2)
	}
	if s1.Migrations == 0 {
		t.Fatal("replay run exercised no migrations")
	}
}

// A crash blip shorter than the probe detection time must not trigger
// failover: the host's flows pause for the blip and resume on recovery,
// with no deaths, no migrations, and clean audits.
func TestShortBlipDoesNotFailover(t *testing.T) {
	cfg := testConfig(2)
	// 15µs blip vs 30µs detection (3 probes × 10µs).
	cfg.Plans = []faults.Plan{{HostCrash: faults.OneShot(100*sim.Microsecond, 15*sim.Microsecond)}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addTestFlows(t, f, 8)
	audit := f.AttachAuditors(20 * sim.Microsecond)
	f.RunFor(1 * sim.Millisecond)
	if f.Stats.Crashes != 1 || f.Stats.Recovers != 1 {
		t.Fatalf("crashes=%d recovers=%d, want 1/1", f.Stats.Crashes, f.Stats.Recovers)
	}
	if f.Stats.Deaths != 0 || f.Stats.Migrations != 0 {
		t.Fatalf("blip triggered failover: deaths=%d migrations=%d", f.Stats.Deaths, f.Stats.Migrations)
	}
	f.Quiesce()
	f.RunFor(300 * sim.Microsecond)
	audit.Final()
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
}

package iosys_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceio/internal/faults"
	"ceio/internal/iosys"
	"ceio/internal/sim"
	"ceio/internal/stats"
	"ceio/internal/tenant"
	"ceio/internal/workload"
)

var updateIdleGate = flag.Bool("update-idle-gate", false, "rewrite testdata/idle_gate.golden")

// idleGateArchs are the datapaths TestIdleGateMatchesParent pins: every
// registered architecture the receive contract covers.
var idleGateArchs = []workload.Method{
	workload.MethodBaseline, workload.MethodHostCC, workload.MethodShRing,
	workload.MethodCEIO, workload.MethodRDCA,
}

// idleGatePlan arms every fault that reaches a polling core's flows:
// lost slow-path reads and credit releases, rejected steering updates
// (retries exhaust into the degraded slow-path pin), on-NIC memory
// pressure and CPU stalls.
var idleGatePlan = faults.Plan{
	Seed:                   7,
	CreditLossRate:         0.05,
	ReadLossRate:           0.05,
	SteerFailRate:          0.3,
	NICMemPressure:         faults.Episode{PeriodNs: 300_000, DurationNs: 80_000, PhaseNs: 120_000},
	NICMemPressureFraction: 0.9,
	CPUStall:               faults.Episode{PeriodNs: 200_000, DurationNs: 20_000, PhaseNs: 50_000},
	CPUStallNs:             400,
}

// idleGateRun drives one machine through a churned population and
// returns the fingerprint the golden pins: deliveries, drops, the
// latency histogram, LLC traffic, the summed poll counters of every core
// the run created, and the engine's event count. It also checks that the
// doorbell gate answered some polls, and that the registry's poll series
// (per core, or machine-wide with removed flows' cores retired into it)
// sum to the same counts.
//
// cores == 0 gives each of 256 flows a core of its own, as Fig. 12 does;
// cores > 0 spreads 32 flows over that many rx-queue cores. Either way
// most flows sit paused while a small active set rotates every 50 us,
// and a few flows are torn down and set up per rotation, so idle cores
// wake and sleep throughout. The DDIO region is shrunk to 512 KB so
// consumes miss, and the on-NIC memory to 1 MB so the slow path also
// overflows and drops. A non-nil tenancy carves the DDIO region, and the
// flows alternate between its tenants.
func idleGateRun(t *testing.T, name string, arch workload.Method, cores int, withFaults bool, tenancy *tenant.Config) string {
	cfg := iosys.DefaultConfig()
	cfg.Cores = cores
	cfg.LLCBytes = 512 << 10
	cfg.NICMemBytes = 1 << 20
	cfg.Tenancy = tenancy
	if withFaults {
		plan := idleGatePlan
		cfg.FaultPlan = &plan
	}
	m := iosys.NewMachine(cfg, workload.NewDatapath(arch))

	population, active, swap := 256, 12, 4
	if cores > 0 {
		population, active, swap = 32, 6, 2
	}
	rng := rand.New(rand.NewSource(int64(cores)*31 + 5))
	var coreList []*iosys.Core
	seen := map[*iosys.Core]bool{}
	next := 1
	add := func() int {
		id := next
		next++
		var s iosys.FlowSpec
		switch {
		case id%16 == 0:
			s = workload.LineFS(id, 1024, 64)
		case id%2 == 0:
			s = workload.ERPCKV(id, 256, workload.DPDK)
		default:
			s = workload.Echo(id, 512)
			s.InitialRate = cfg.LinkBandwidth / float64(active)
			s.FixedRate = true
		}
		if tenancy != nil {
			s.Tenant = tenancy.Specs[id%len(tenancy.Specs)].ID
		}
		m.AddFlow(s)
		if c := m.Core(id); c != nil && !seen[c] {
			seen[c] = true
			coreList = append(coreList, c)
		}
		return id
	}
	ids := make([]int, 0, population)
	for len(ids) < population {
		id := add()
		m.PauseFlow(id)
		ids = append(ids, id)
	}
	var running []int
	m.Eng.Every(0, 50*sim.Microsecond, func() {
		for k := 0; k < swap; k++ {
			i := rng.Intn(len(ids))
			m.RemoveFlow(ids[i])
			ids[i] = add()
			m.PauseFlow(ids[i])
		}
		for _, id := range running {
			m.PauseFlow(id)
		}
		running = running[:0]
		for k := 0; k < active; k++ {
			id := ids[rng.Intn(len(ids))]
			m.ResumeFlow(id)
			running = append(running, id)
		}
	})
	m.Run(3 * sim.Millisecond)

	var polls, empty, processed, gated uint64
	for _, c := range coreList {
		polls += c.Polls
		empty += c.EmptyPolls
		processed += c.Processed
		gated += c.GatedPolls
	}
	if gated == 0 {
		t.Errorf("%s: no poll was gated, so the run does not exercise the doorbell", name)
	}
	t.Logf("%s: %d of %d polls gated", name, gated, polls)
	for series, want := range map[string]uint64{
		"iosys.core.polls_total": polls, "iosys.core.empty_polls_total": empty, "iosys.core.gated_polls_total": gated,
	} {
		var got float64
		for _, mt := range m.Reg.Metrics() {
			if mt.Name == series {
				got += mt.Value()
			}
		}
		if got != float64(want) {
			t.Errorf("%s: %s reads %.0f, the cores counted %d", name, series, got, want)
		}
	}
	return fmt.Sprintf("delivered=%d/%dB drops=%d lat=%s llc=%d/%d/%d polls=%d empty=%d processed=%d events=%d",
		m.Delivered.Packets, m.Delivered.Bytes, m.TotalDrops, histFingerprint(&m.Latency),
		m.LLC.Hits, m.LLC.Misses, m.LLC.Evictions, polls, empty, processed, m.Eng.Processed)
}

// histFingerprint condenses a latency histogram: count, exact mean,
// extrema, and a hash of its value at every percentile.
func histFingerprint(h *stats.Histogram) string {
	w := fnv.New64a()
	for q := 1; q < 100; q++ {
		fmt.Fprintf(w, "%d,", h.Percentile(float64(q)/100))
	}
	fmt.Fprintf(w, "%d", h.P999())
	return fmt.Sprintf("%d/%x/%d/%d/%016x", h.Count(), math.Float64bits(h.Mean()), h.Min(), h.Max(), w.Sum64())
}

// TestIdleGateMatchesParent pins every datapath's modelled output, poll
// counters and event count, at both CPU layouts, with faults off and
// on, to values recorded before polls were gated on the core's
// doorbell. A gated tick must be indistinguishable from the empty poll
// it replaces, so any drift here means a doorbell is missing: a core
// slept through a state change its datapath's Poll would have acted on.
// The partitioned-tenancy CEIO cases add the tenant budget gate, which
// can hold a slow-path flow that has credits back from the fast path:
// such a flow must keep its core armed until the gate opens.
// Regenerate with -update-idle-gate only for an intended model change.
func TestIdleGateMatchesParent(t *testing.T) {
	golden := filepath.Join("testdata", "idle_gate.golden")
	var lines []string
	for _, arch := range idleGateArchs {
		for _, cores := range []int{0, 4} {
			for _, withFaults := range []bool{false, true} {
				name := fmt.Sprintf("%s/cores=%d/faults=%v", arch, cores, withFaults)
				lines = append(lines, name+" "+idleGateRun(t, name, arch, cores, withFaults, nil))
			}
		}
	}
	partitioned := &tenant.Config{Mode: tenant.ModeStatic, Specs: []tenant.Spec{{ID: "a", Ways: 1}, {ID: "b", Ways: 1}}}
	for _, cores := range []int{0, 4} {
		for _, withFaults := range []bool{false, true} {
			name := fmt.Sprintf("%s/cores=%d/faults=%v/tenancy=static", workload.MethodCEIO, cores, withFaults)
			lines = append(lines, name+" "+idleGateRun(t, name, workload.MethodCEIO, cores, withFaults, partitioned))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateIdleGate {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-idle-gate to create it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d cases, run has %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("modelled output moved:\n got %s\nwant %s", lines[i], wantLines[i])
		}
	}
}

package experiments

import (
	"fmt"

	"ceio/internal/faults"
	"ceio/internal/fleet"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// Fleet sweeps rack size across 4/8/16/32/64 hosts with a mid-window
// host kill: every host steps the full machine model on its own engine
// shard, all balancer→host control traffic traverses the explicit ToR
// switch model (internal/fabric), flows are spread by the balancer's
// rendezvous hash (2 eRPC KV + 1 LineFS flow per host of capacity), and
// a one-shot host_crash episode takes host 0 down for a quarter of the
// measurement window. The balancer detects the missed heartbeats over
// the fabric, drains the victim's flows through the credit-replaying
// migration handshake, re-steers them to survivors, and rebalances
// after recovery — while per-host and fleet invariant auditors (flow
// placement, credit conservation, fabric byte conservation) sweep
// throughout. The CEIO columns show the paper's cache-miss advantage
// (§6.2) surviving rack-scale churn: migration moves flows, never
// credits, so the credit bound holds on every survivor even while it
// absorbs a dead host's load.
//
// Unlike every other experiment, fleet cells run serially and the
// worker pool parallelises WITHIN each rack (host shards stepped in
// lockstep epochs). Fanning whole racks into the pool while each rack
// also fans its shards would have every worker blocked submitting
// nested jobs — so the pool is handed to the fleet, not to runCells.
func Fleet(cfg Config) Table {
	tb := Table{
		Title:  "Fleet — rack-scale failover over the ToR fabric, host 0 killed mid-window, 3 flows per host",
		Header: []string{"hosts", "Baseline miss", "Baseline p99 (µs)", "CEIO miss", "CEIO p99 (µs)", "migrated", "TTR max (µs)", "fabric MB", "violations"},
		Note:   "Host 0 crashes a quarter into the measurement window and recovers a quarter later; every victim flow is re-steered to a survivor within the drain deadline (TTR = crash-to-re-steered). All probes and migration handshakes traverse the modelled ToR switch (fabric MB = control bytes it delivered for the CEIO rack during the measurement window); hosts are sharded across the worker pool in lockstep epochs, so the rendered rows are byte-identical at any -parallel width. CEIO's miss-rate advantage holds through the churn because migration replays unacknowledged credit state before teardown, conserving each survivor's C_total.",
	}
	counts := []int{4, 8, 16, 32, 64}
	if cfg.Quick {
		counts = []int{4, 8}
	}
	if cfg.FleetHosts > 0 {
		counts = []int{cfg.FleetHosts}
	}
	methods := []workload.Method{workload.MethodBaseline, workload.MethodCEIO}
	// Cells are (host count, method) with method innermost. The pool is
	// reserved for intra-rack sharding (see above), so cells themselves
	// run serially.
	pool := cfg.Pool
	cellCfg := cfg
	cellCfg.Pool = nil
	res := runCells(cellCfg, len(counts)*len(methods), func(i int, c Config) reads {
		hosts := counts[i/len(methods)]
		fc := fleet.DefaultConfig(hosts, methods[i%len(methods)])
		fc.Machine = c.Machine
		fc.Pool = pool
		probe := c.Measure / 200
		if probe < 5*sim.Microsecond {
			probe = 5 * sim.Microsecond
		}
		fc.ProbePeriod = probe
		fc.DrainDeadline = c.Measure / 8
		fc.Plans = []faults.Plan{{HostCrash: faults.OneShot(c.Warmup+c.Measure/4, c.Measure/4)}}
		f, err := fleet.New(fc)
		if err != nil {
			panic(err)
		}
		for id := 1; id <= 3*hosts; id += 3 {
			f.AddFlow(workload.ERPCKV(id, 144, workload.DPDK))
			f.AddFlow(workload.ERPCKV(id+1, 144, workload.DPDK))
			f.AddFlow(workload.LineFS(id+2, 1024, 1024))
		}
		audit := f.AttachAuditors(probe)
		f.RunFor(c.Warmup)
		f.ResetWindow()
		return scope{reg: f.Reg, rack: f, audit: audit}.window(fleetCols, func() {
			f.RunFor(c.Measure)
			audit.Final()
		})
	})
	for k, n := range counts {
		base, ceio := res[k*len(methods)], res[k*len(methods)+1]
		// Balancer mechanics (probe cadence, migration handshake) are
		// datapath-independent, so migrated/TTR render from the CEIO rack;
		// violations sum both racks per seed so neither can hide a breach.
		viol := make([]float64, len(base))
		for i := range base {
			viol[i] = base[i].v[5] + ceio[i].v[5]
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", n),
			colStat(base, 0).pct(),
			colStat(base, 1).us(),
			colStat(ceio, 0).pct(),
			colStat(ceio, 1).us(),
			colStat(ceio, 2).count(),
			colStat(ceio, 3).us(),
			colStat(ceio, 4).fmtWith(func(v float64) string { return f2(v / (1 << 20)) }),
			statOf(viol, func(v float64) float64 { return v }).count(),
		})
	}
	return tb
}

// fleetCols are what each rack cell reads: the rack-wide LLC miss ratio
// and P99 latency; failover migrations, counted from t = 0 (the one
// crash falls inside the window, so that is the window's count); the
// slowest crash-to-re-steered time; control bytes the ToR fabric
// delivered during the window; and invariant violations.
var fleetCols = []col{
	{name: rackMissRatio},
	{name: rackLatency, how: p99},
	{name: "fleet.failover.migrations_total"},
	{name: "fleet.failover.time_to_recover_ns", how: hmax},
	{name: "fabric.bytes.delivered_total", how: delta},
	{name: auditViolations},
}

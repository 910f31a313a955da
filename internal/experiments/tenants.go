package experiments

import (
	"fmt"

	"ceio/internal/core"
	"ceio/internal/iosys"
	"ceio/internal/telemetry"
	"ceio/internal/tenant"
	"ceio/internal/workload"
)

// Tenants is the multi-tenant noisy-neighbour experiment: a latency
// sensitive KV tenant (the victim) shares the machine with a LineFS
// file-transfer tenant (the antagonist) whose streaming chunks flood the
// DDIO region. Four management schemes are compared on the unmanaged
// baseline datapath — shared LLC, static waymask partitions, and dynamic
// IOCA-style repartitioning from a deliberately bad starting allocation —
// plus dynamic partitioning combined with CEIO's credit gate, where each
// tenant's credit bound derives from its partition instead of the global
// DDIO capacity.
//
// When Config.SampleEvery is positive, each scheme additionally emits a
// timeline table of per-tenant DDIO occupancy, way allocation, and miss
// ratio over simulated time (sampled on the engine clock, so the rows
// are byte-identical across -parallel levels). The dynamic rows let the
// repartitioning controller's recovery from the starved allocation be
// read directly off the occupancy curve.
func Tenants(cfg Config) []Table {
	tb := Table{
		Title:  "Tenants — victim KV tenant vs file-transfer antagonist under LLC partitioning schemes",
		Header: []string{"scheme", "victim LLC miss", "victim Mpps", "victim P99 (µs)", "antagonist Gbps", "ways kv/bulk/pool", "ways moved"},
		Note:   "Dynamic repartitioning starts from a deliberately starved victim (kv=1 of 6 ways) and must discover the antagonist thrashes without benefit; the final row adds CEIO with per-tenant partition credit budgets.",
	}
	res := runCells(cfg, len(tenantSchemes), func(i int, c Config) reads {
		return runTenantCell(c, tenantSchemes[i])
	})
	for i, sc := range tenantSchemes {
		reps := res[i]
		ways := "-"
		if sc.mode != tenant.ModeShared {
			// Way allocations are identical across seed replicas in static
			// mode and reported from the first replica in dynamic mode.
			r := reps[0]
			ways = fmt.Sprintf("%d/%d/%d", int(r.v[4]), int(r.v[5]), int(r.v[6]))
		}
		tb.Rows = append(tb.Rows, []string{
			sc.name,
			colStat(reps, 0).pct(),
			colStat(reps, 1).f2(),
			colStat(reps, 2).us(),
			colStat(reps, 3).f2(),
			ways,
			colStat(reps, 7).count(),
		})
	}
	out := []Table{tb}
	if cfg.SampleEvery > 0 {
		// Timeline tables come from the first seed replica of each cell;
		// slots are index-ordered, so output order is deterministic.
		for i, sc := range tenantSchemes {
			s := res[i][0].timeline
			out = append(out, timelineTable(sc.name,
				"Sampled on simulated time; occupancy/ways/miss-ratio per tenant.", s.Ticks(), s.Series()))
		}
	}
	return out
}

// timelineSeries are the sampled metric names the tenants timeline
// tables report (all other registry series are filtered out).
var timelineSeries = map[string]bool{
	"cache.llc.ddio.occupancy_bytes": true,
	"tenant.ways_count":              true,
	"tenant.llc.miss_ratio":          true,
}

// tenantScheme is one management-scheme cell of the experiment.
type tenantScheme struct {
	name  string
	mode  tenant.Mode
	specs []tenant.Spec
	ceio  bool
}

// tenantSchemes are the comparison rows: shared and static modes start
// from a fair allocation, the dynamic ones from a starved victim.
var tenantSchemes = []tenantScheme{
	{"shared LLC (no partitioning)", tenant.ModeShared, fairWays, false},
	{"static partitions", tenant.ModeStatic, fairWays, false},
	{"dynamic repartitioning", tenant.ModeDynamic, starvedWays, false},
	{"dynamic + CEIO credits", tenant.ModeDynamic, starvedWays, true},
}

var (
	fairWays    = []tenant.Spec{{ID: "kv", Ways: 3}, {ID: "bulk", Ways: 2}}
	starvedWays = []tenant.Spec{{ID: "kv", Ways: 1}, {ID: "bulk", Ways: 4}}
)

// tenantCols are what each tenants cell reads: the victim's LLC miss
// ratio, Mpps and worst flow P99, the antagonist's Gbps, the final way
// allocation, and the way moves counted from t = 0, because the dynamic
// controller's recovery from the starved start happens during warm-up.
var tenantCols = []col{
	{name: "tenant.llc.miss_ratio", labels: kvTenant},
	{name: "tenant.delivered.rate_mpps", labels: kvTenant},
	{name: worstInvolvedP99},
	{name: "tenant.delivered.rate_gbps", labels: bulkTenant},
	{name: "tenant.ways_count", labels: kvTenant},
	{name: "tenant.ways_count", labels: bulkTenant},
	{name: "tenant.shared.ways_count"},
	{name: "tenant.ways_moved_total"},
}

var (
	kvTenant   = []telemetry.Label{telemetry.L("tenant", "kv")}
	bulkTenant = []telemetry.Label{telemetry.L("tenant", "bulk")}
)

// runTenantCell measures one scheme: two KV flows tagged "kv" (the
// victims, CPU-involved) against two LineFS flows tagged "bulk".
func runTenantCell(c Config, sc tenantScheme) reads {
	c.Machine.Tenancy = &tenant.Config{Mode: sc.mode, Specs: sc.specs}
	var dp iosys.Datapath
	if sc.ceio {
		dp = core.New(core.DefaultOptions())
	} else {
		dp = workload.NewDatapath(workload.MethodBaseline)
	}
	flows := flowsOf(4, func(id int) iosys.FlowSpec {
		if id > 2 {
			s := workload.LineFS(id, 1024, 512)
			s.Tenant = "bulk"
			return s
		}
		s := workload.ERPCKV(id, 256, workload.DPDK)
		s.Tenant = "kv"
		return s
	})
	var sampler *telemetry.Sampler
	var arm func(*iosys.Machine)
	if c.SampleEvery > 0 {
		arm = func(m *iosys.Machine) {
			sampler = telemetry.NewSampler(m.Eng, m.Reg, c.SampleEvery,
				func(mt *telemetry.Metric) bool { return timelineSeries[mt.Name] })
		}
	}
	r := measure(c, dp, flows, tenantCols, arm)
	r.timeline = sampler
	return r
}

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
	schemes := tenantSchemes(cfg)
	res := runCells(cfg, len(schemes), func(i int, c Config) tenantResult {
		return runTenantCell(c, schemes[i])
	})
	for i, sc := range schemes {
		reps := res[i]
		ways := "-"
		if sc.mode != tenant.ModeShared {
			// Way allocations are identical across seed replicas in static
			// mode and reported from the first replica in dynamic mode.
			ways = fmt.Sprintf("%d/%d/%d", reps[0].waysKV, reps[0].waysBulk, reps[0].waysPool)
		}
		tb.Rows = append(tb.Rows, []string{
			sc.name,
			statOf(reps, func(r tenantResult) float64 { return r.victimMiss }).pct(),
			statOf(reps, func(r tenantResult) float64 { return r.victimMpps }).f2(),
			statOf(reps, func(r tenantResult) float64 { return float64(r.victimP99) }).us(),
			statOf(reps, func(r tenantResult) float64 { return r.antagGbps }).f2(),
			ways,
			statOf(reps, func(r tenantResult) float64 { return float64(r.waysMoved) }).count(),
		})
	}
	out := []Table{tb}
	if cfg.SampleEvery > 0 {
		// Timeline tables come from the first seed replica of each cell;
		// slots are index-ordered, so output order is deterministic.
		for i, sc := range schemes {
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

// tenantSchemes enumerates the comparison rows. Config.TenantLayout, when
// set (the bench -tenants flag), overrides the partitioned schemes'
// starting allocation.
func tenantSchemes(cfg Config) []tenantScheme {
	fair := []tenant.Spec{{ID: "kv", Ways: 3}, {ID: "bulk", Ways: 2}}
	starved := []tenant.Spec{{ID: "kv", Ways: 1}, {ID: "bulk", Ways: 4}}
	if len(cfg.TenantLayout) > 0 {
		fair = cfg.TenantLayout
		starved = cfg.TenantLayout
	}
	return []tenantScheme{
		{"shared LLC (no partitioning)", tenant.ModeShared, fair, false},
		{"static partitions", tenant.ModeStatic, fair, false},
		{"dynamic repartitioning", tenant.ModeDynamic, starved, false},
		{"dynamic + CEIO credits", tenant.ModeDynamic, starved, true},
	}
}

// tenantResult is one replica's measurement.
type tenantResult struct {
	victimMiss float64
	victimMpps float64
	victimP99  int64
	antagGbps  float64
	waysKV     int
	waysBulk   int
	waysPool   int
	waysMoved  uint64
	// timeline holds the sampled series when Config.SampleEvery > 0.
	timeline *telemetry.Sampler
}

// runTenantCell measures one scheme: two KV flows tagged "kv" against two
// LineFS flows tagged "bulk".
func runTenantCell(cfg Config, sc tenantScheme) tenantResult {
	mc := cfg.Machine
	mc.Tenancy = &tenant.Config{Mode: sc.mode, Specs: sc.specs}
	var dp iosys.Datapath
	if sc.ceio {
		dp = core.New(core.DefaultOptions())
	} else {
		dp = workload.NewDatapath(workload.MethodBaseline)
	}
	m := iosys.NewMachine(mc, dp)
	var sampler *telemetry.Sampler
	if cfg.SampleEvery > 0 {
		sampler = telemetry.NewSampler(m.Eng, m.Reg, cfg.SampleEvery,
			func(mt *telemetry.Metric) bool { return timelineSeries[mt.Name] })
	}
	id := 1
	const victims = 2
	for i := 0; i < victims; i++ {
		s := workload.ERPCKV(id, 256, workload.DPDK)
		s.Tenant = "kv"
		m.AddFlow(s)
		id++
	}
	for i := 0; i < 2; i++ {
		s := workload.LineFS(id, 1024, 512)
		s.Tenant = "bulk"
		m.AddFlow(s)
		id++
	}
	measureWindow(m, cfg.Warmup, cfg.Measure)

	// All scalar reads go through the telemetry registry: the same series
	// the exporters publish, so tables and exports cannot disagree.
	kv := telemetry.L("tenant", "kv")
	bulk := telemetry.L("tenant", "bulk")
	res := tenantResult{
		victimMiss: m.Reg.Value("tenant.llc.miss_ratio", kv),
		victimMpps: m.Reg.Value("tenant.delivered.rate_mpps", kv),
		antagGbps:  m.Reg.Value("tenant.delivered.rate_gbps", bulk),
		waysKV:     int(m.Reg.Value("tenant.ways_count", kv)),
		waysBulk:   int(m.Reg.Value("tenant.ways_count", bulk)),
		waysPool:   int(m.Reg.Value("tenant.shared.ways_count")),
		waysMoved:  uint64(m.Reg.Value("tenant.ways_moved_total")),
		timeline:   sampler,
	}
	for fid, f := range m.Flows {
		if fid <= victims {
			if v := f.Latency.P99(); v > res.victimP99 {
				res.victimP99 = v
			}
		}
	}
	return res
}

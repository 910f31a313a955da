package ceio_test

// Catalogue and grammar audit, run in CI: every metric a simulation can
// register must appear (backticked) in OBSERVABILITY.md, and every
// registered name must satisfy the documented naming grammar. The
// registries probed cover all four architectures plus multi-tenancy, so
// a new series cannot ship undocumented.

import (
	"strings"
	"testing"

	"ceio"
	"ceio/internal/telemetry"
)

// allRegistries builds one simulator per architecture (CEIO tenanted,
// so per-tenant series register too) and returns their registries.
func allRegistries(t *testing.T) []*ceio.MetricsRegistry {
	t.Helper()
	var regs []*ceio.MetricsRegistry
	for _, arch := range []ceio.Architecture{ceio.ArchBaseline, ceio.ArchHostCC, ceio.ArchShRing, ceio.ArchCEIO, ceio.ArchRDCA} {
		cfg := ceio.DefaultConfig()
		if arch == ceio.ArchCEIO {
			specs, err := ceio.ParseTenantSpecs("kv=2,bulk=3")
			if err != nil {
				t.Fatal(err)
			}
			mode, err := ceio.ParseTenantMode("dynamic")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Tenancy = &ceio.TenancyConfig{Mode: mode, Specs: specs}
		}
		s, err := ceio.NewSimulatorE(cfg, arch)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if arch == ceio.ArchCEIO {
			// Arm a fault plan so the faults.injected.* series register too.
			if _, err := s.InjectFaults(ceio.FaultPlan{WireDropRate: 0.01}); err != nil {
				t.Fatal(err)
			}
		}
		regs = append(regs, s.Metrics())
	}
	// A multi-queue CEIO machine: the RSS dispatch, per-core, and
	// per-core credit-share series only register when Cores > 0.
	cfg := ceio.DefaultConfig()
	cfg.Cores = 2
	s, err := ceio.NewSimulatorE(cfg, ceio.ArchCEIO)
	if err != nil {
		t.Fatalf("multi-queue CEIO: %v", err)
	}
	regs = append(regs, s.Metrics())
	// A pipelined flow: the dataplane.* engine and per-module series only
	// register once a flow declares FlowSpec.Pipeline.
	pcfg := ceio.DefaultConfig()
	ps, err := ceio.NewSimulatorE(pcfg, ceio.ArchCEIO)
	if err != nil {
		t.Fatalf("pipelined CEIO: %v", err)
	}
	spec := ceio.KVFlow(1, 144)
	spec.Pipeline = []string{"nat64", "firewall"}
	if _, err := ps.AddFlowE(spec); err != nil {
		t.Fatalf("pipelined flow: %v", err)
	}
	regs = append(regs, ps.Metrics())
	// A rack behind the failover balancer: the fleet.* series live in the
	// fleet-level registry, not any single host's.
	fcfg := ceio.DefaultFleetConfig(2, ceio.ArchCEIO)
	fcfg.Plans = []ceio.FaultPlan{{HostCrash: ceio.OneShotFault(ceio.Millisecond, ceio.Millisecond)}}
	fl, err := ceio.NewFleetE(fcfg)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	regs = append(regs, fl.Reg)
	return regs
}

// benchSeries are the bench-process registry names (cmd/ceio-bench is
// package main, so its registry cannot be imported; keep in sync).
var benchSeries = map[string]telemetry.Kind{
	"bench.experiments_total":  telemetry.KindCounter,
	"bench.tables_total":       telemetry.KindCounter,
	"bench.rows_total":         telemetry.KindCounter,
	"bench.pool.workers_count": telemetry.KindGauge,
}

// TestEverySeriesDocumented asserts OBSERVABILITY.md's catalogue covers
// every series any run can emit.
func TestEverySeriesDocumented(t *testing.T) {
	doc := readFile(t, "OBSERVABILITY.md")
	names := map[string]bool{}
	for _, reg := range allRegistries(t) {
		for _, m := range reg.Metrics() {
			names[m.Name] = true
		}
	}
	for n := range benchSeries {
		names[n] = true
	}
	if len(names) < 70 {
		t.Fatalf("only %d distinct series registered; registry wiring regressed", len(names))
	}
	for n := range names {
		if !strings.Contains(doc, "`"+n+"`") {
			t.Errorf("series %q is not documented in OBSERVABILITY.md", n)
		}
	}
}

// TestRegisteredNamesObeyGrammar re-validates every registered metric
// (name, kind, labels) against the documented grammar — the CI naming
// check. Registration already panics on violations; this keeps the rule
// enforced even if that path changes.
func TestRegisteredNamesObeyGrammar(t *testing.T) {
	check := func(name string, kind telemetry.Kind) {
		if err := telemetry.ValidateName(name, kind); err != nil {
			t.Errorf("registered series violates naming grammar: %v", err)
		}
	}
	for _, reg := range allRegistries(t) {
		for _, m := range reg.Metrics() {
			check(m.Name, m.Kind)
		}
	}
	for n, k := range benchSeries {
		check(n, k)
	}
}

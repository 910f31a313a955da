package ceio_test

import (
	"fmt"
	"strings"
	"testing"

	"ceio"
)

func TestSimulatorQuickstart(t *testing.T) {
	sim := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchCEIO)
	sim.AddFlow(ceio.KVFlow(1, 144))
	sim.AddFlow(ceio.FileTransferFlow(2, 0, 0))
	sim.RunFor(5 * ceio.Millisecond)
	sn := sim.Snapshot()
	if sn.DeliveredPkts == 0 {
		t.Fatal("nothing delivered")
	}
	if sn.Arch != "CEIO" {
		t.Fatalf("arch = %q", sn.Arch)
	}
	if !strings.Contains(sn.String(), "CEIO") {
		t.Fatal("snapshot string missing arch")
	}
	if sim.CEIO() == nil {
		t.Fatal("CEIO accessor should return the datapath")
	}
}

func TestSimulatorAllArchitectures(t *testing.T) {
	for _, arch := range []ceio.Architecture{ceio.ArchBaseline, ceio.ArchHostCC, ceio.ArchShRing, ceio.ArchCEIO, ceio.ArchRDCA} {
		sim := ceio.NewSimulator(ceio.DefaultConfig(), arch)
		sim.AddFlow(ceio.EchoFlow(1, 512))
		sim.RunFor(2 * ceio.Millisecond)
		if sim.Snapshot().DeliveredPkts == 0 {
			t.Errorf("%s delivered nothing", arch)
		}
		if arch != ceio.ArchCEIO && sim.CEIO() != nil {
			t.Errorf("%s should not expose a CEIO datapath", arch)
		}
	}
}

// An architecture outside the registry is invalid input: the
// error-returning constructors report it, naming the bad name, instead
// of panicking while building the datapath.
func TestUnknownArchitectureIsAnError(t *testing.T) {
	for _, arch := range []ceio.Architecture{"bogus", "", "ceio"} {
		want := fmt.Sprintf("unknown architecture %q", arch)
		if s, err := ceio.NewSimulatorE(ceio.DefaultConfig(), arch); err == nil || s != nil {
			t.Errorf("NewSimulatorE(%q) = %v, %v; want an error", arch, s, err)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("NewSimulatorE(%q) error %q does not contain %q", arch, err, want)
		}
		if f, err := ceio.NewFleetE(ceio.DefaultFleetConfig(2, arch)); err == nil || f != nil {
			t.Errorf("NewFleetE(%q) = %v, %v; want an error", arch, f, err)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("NewFleetE(%q) error %q does not contain %q", arch, err, want)
		}
	}
}

// An observer registered after AttachAuditor chains onto the auditor's
// hook: both see every delivery, so the per-flow delivery-order check
// stays armed.
func TestOnDeliverChainsAfterAuditor(t *testing.T) {
	sim := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchCEIO)
	a := sim.AttachAuditor(50 * ceio.Microsecond)
	seen := 0
	sim.OnDeliver(func(f *ceio.Flow, p *ceio.Packet) { seen++ })
	f := sim.AddFlow(ceio.KVFlow(1, 144))
	sim.RunFor(1 * ceio.Millisecond)
	if seen == 0 || uint64(seen) != f.DeliveredCount() {
		t.Fatalf("observer saw %d of %d deliveries", seen, f.DeliveredCount())
	}
	if err := a.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
	// Replay an already-delivered sequence number the way Machine.Deliver
	// invokes the hook.
	before := seen
	sim.Machine().OnDeliver(f, &ceio.Packet{FlowID: 1, Seq: 0})
	if seen != before+1 {
		t.Fatal("user observer did not see the replayed delivery")
	}
	if err := a.Err(); err == nil || !strings.Contains(err.Error(), "delivery-order") {
		t.Fatalf("want a delivery-order violation, got %v", err)
	}
}

func TestSimulatorScenarioScripting(t *testing.T) {
	sim := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchCEIO)
	f := sim.AddFlow(ceio.EchoFlow(1, 256))
	delivered := 0
	sim.OnDeliver(func(fl *ceio.Flow, p *ceio.Packet) { delivered++ })
	sim.At(1*ceio.Millisecond, func() { sim.PauseFlow(1) })
	sim.At(2*ceio.Millisecond, func() { sim.ResumeFlow(1) })
	sim.RunFor(3 * ceio.Millisecond)
	if delivered == 0 || f.Generated == 0 {
		t.Fatal("scripting produced no traffic")
	}
	// Warm-up reset: metrics window restarts.
	sim.ResetMetrics()
	before := sim.Snapshot().DeliveredPkts
	if before != 0 {
		t.Fatalf("reset did not clear delivered count, got %d", before)
	}
	sim.RunFor(1 * ceio.Millisecond)
	if sim.Snapshot().DeliveredPkts == 0 {
		t.Fatal("no traffic after reset")
	}
}

func TestCEIOSimulatorWithOptions(t *testing.T) {
	opts := ceio.DefaultCEIOOptions()
	opts.ForceSlowPath = true
	sim := ceio.NewCEIOSimulator(ceio.DefaultConfig(), opts)
	sim.AddFlow(ceio.EchoFlow(1, 1024))
	sim.RunFor(3 * ceio.Millisecond)
	dp := sim.CEIO()
	if dp == nil {
		t.Fatal("no CEIO datapath")
	}
	if dp.FastPackets != 0 || dp.SlowPackets == 0 {
		t.Fatalf("forced slow path: fast=%d slow=%d", dp.FastPackets, dp.SlowPackets)
	}
}

func TestMachineAccessor(t *testing.T) {
	sim := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchBaseline)
	sim.AddFlow(ceio.KVFlow(1, 0))
	sim.RunFor(1 * ceio.Millisecond)
	m := sim.Machine()
	if m.LLC.Insertions == 0 {
		t.Fatal("machine accessor should expose live LLC counters")
	}
	if sim.Now() != 1*ceio.Millisecond {
		t.Fatalf("now = %v", sim.Now())
	}
}

func TestLoadScenarioFacade(t *testing.T) {
	spec, err := ceio.LoadScenario(strings.NewReader(`{
		"arch": "CEIO", "duration_ms": 1,
		"flows": [{"id": 1, "kind": "rpc"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMpps <= 0 {
		t.Fatalf("result: %+v", res)
	}
}

// Tenancy misconfiguration must surface as descriptive errors through the
// facade's error-returning constructors, not panics deep in the machine.
func TestTenancyValidationThroughFacade(t *testing.T) {
	bad := ceio.DefaultConfig()
	bad.Tenancy = &ceio.TenancyConfig{
		Mode:  ceio.TenantStatic,
		Specs: []ceio.TenantSpec{{ID: "kv", Ways: 4}, {ID: "bulk", Ways: 4}},
	}
	if _, err := ceio.NewSimulatorE(bad, ceio.ArchBaseline); err == nil {
		t.Fatal("over-quota tenant config accepted")
	} else if !strings.Contains(err.Error(), "quota") {
		t.Fatalf("error does not name the quota problem: %v", err)
	}

	dup := ceio.DefaultConfig()
	dup.Tenancy = &ceio.TenancyConfig{
		Mode:  ceio.TenantStatic,
		Specs: []ceio.TenantSpec{{ID: "kv", Ways: 1}, {ID: "kv", Ways: 1}},
	}
	if _, err := ceio.NewSimulatorE(dup, ceio.ArchBaseline); err == nil {
		t.Fatal("duplicate tenant IDs accepted")
	}

	good := ceio.DefaultConfig()
	good.Tenancy = &ceio.TenancyConfig{
		Mode:  ceio.TenantStatic,
		Specs: []ceio.TenantSpec{{ID: "kv", Ways: 2}, {ID: "bulk", Ways: 2}},
	}
	s, err := ceio.NewSimulatorE(good, ceio.ArchBaseline)
	if err != nil {
		t.Fatal(err)
	}
	f := ceio.KVFlow(1, 256)
	f.Tenant = "nosuch"
	if _, err := s.AddFlowE(f); err == nil {
		t.Fatal("flow tagged with an undeclared tenant accepted")
	}

	plain := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchBaseline)
	f2 := ceio.KVFlow(1, 256)
	f2.Tenant = "kv"
	if _, err := plain.AddFlowE(f2); err == nil {
		t.Fatal("tenant-tagged flow accepted on an untenanted machine")
	}
}

// Out-of-range datapath options must come back from the facade's
// error-returning constructors as an error naming the field, never as a
// panic in the controller or a run that silently stops delivering.
func TestOptionValidationThroughFacade(t *testing.T) {
	faulty := ceio.DefaultConfig()
	faulty.FaultPlan = &ceio.FaultPlan{Seed: 1, CreditLossRate: 0.05}
	cases := []struct {
		field string
		build func() (*ceio.Simulator, error)
	}{
		{"TotalCredits", func() (*ceio.Simulator, error) {
			o := ceio.DefaultCEIOOptions()
			o.TotalCredits = -5
			return ceio.NewCEIOSimulatorE(ceio.DefaultConfig(), o)
		}},
		{"ReadAhead", func() (*ceio.Simulator, error) {
			o := ceio.DefaultCEIOOptions()
			o.ReadAhead = -1
			o.ForceSlowPath = true
			return ceio.NewCEIOSimulatorE(ceio.DefaultConfig(), o)
		}},
		{"ReclaimPeriod", func() (*ceio.Simulator, error) {
			o := ceio.DefaultCEIOOptions()
			o.ReclaimPeriod = -1
			return ceio.NewCEIOSimulatorE(faulty, o)
		}},
		{"ReadTimeout", func() (*ceio.Simulator, error) {
			o := ceio.DefaultCEIOOptions()
			o.ReadTimeout = -ceio.Microsecond
			return ceio.NewCEIOSimulatorE(faulty, o)
		}},
		{"ResidencyTarget", func() (*ceio.Simulator, error) {
			o := ceio.DefaultRDCAOptions()
			o.ResidencyTarget = -1
			return ceio.NewRDCASimulatorE(ceio.DefaultConfig(), o)
		}},
		{"FixedWindow", func() (*ceio.Simulator, error) {
			o := ceio.DefaultRDCAOptions()
			o.FixedWindow = -4
			return ceio.NewRDCASimulatorE(ceio.DefaultConfig(), o)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of returning an error: %v", r)
				}
			}()
			s, err := tc.build()
			if err == nil {
				t.Fatalf("negative %s accepted", tc.field)
			}
			if s != nil {
				t.Fatalf("simulator returned alongside error %v", err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error does not name %s: %v", tc.field, err)
			}
		})
	}

	// The zero values still select the defaults.
	if _, err := ceio.NewCEIOSimulatorE(faulty, ceio.CEIOOptions{}); err != nil {
		t.Fatalf("zero CEIO options rejected: %v", err)
	}
	if _, err := ceio.NewRDCASimulatorE(ceio.DefaultConfig(), ceio.RDCAOptions{}); err != nil {
		t.Fatalf("zero RDCA options rejected: %v", err)
	}
}

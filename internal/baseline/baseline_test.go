package baseline_test

import (
	"testing"

	"ceio/internal/baseline"
	"ceio/internal/iosys"
	"ceio/internal/sim"
)

func kvSpec(id, size int) iosys.FlowSpec {
	return iosys.FlowSpec{
		ID: id, Kind: iosys.CPUInvolved, PktSize: size, MsgPkts: 1,
		Cost: iosys.CostModel{PerPacket: 150 * sim.Nanosecond, ZeroCopy: true},
	}
}

func dfsSpec(id int) iosys.FlowSpec {
	return iosys.FlowSpec{ID: id, Kind: iosys.CPUBypass, PktSize: 1024, MsgPkts: 1024}
}

func TestLegacyName(t *testing.T) {
	if baseline.NewLegacy().Name() != "Baseline" {
		t.Fatal("name")
	}
	if baseline.NewHostCC(baseline.DefaultHostCCConfig()).Name() != "HostCC" {
		t.Fatal("name")
	}
	if baseline.NewShRing(baseline.DefaultShRingConfig()).Name() != "ShRing" {
		t.Fatal("name")
	}
}

func TestLegacyRingOverflowDrops(t *testing.T) {
	cfg := iosys.DefaultConfig()
	cfg.RxRingEntries = 16 // tiny ring forces drops under load
	m := iosys.NewMachine(cfg, baseline.NewLegacy())
	f := m.AddFlow(kvSpec(1, 1024))
	m.Run(5 * sim.Millisecond)
	if f.Drops == 0 {
		t.Fatal("expected ring-overflow drops with a 16-entry ring")
	}
	if f.CC.LossEvents == 0 {
		t.Fatal("drops must reach the CCA as losses")
	}
	if f.Delivered.Packets == 0 {
		t.Fatal("flow should still make progress")
	}
}

func TestShRingSharedBudgetAcrossFlows(t *testing.T) {
	sh := baseline.NewShRing(baseline.ShRingConfig{Entries: 64})
	cfg := iosys.DefaultConfig()
	m := iosys.NewMachine(cfg, sh)
	for i := 1; i <= 4; i++ {
		m.AddFlow(kvSpec(i, 512))
	}
	m.Run(5 * sim.Millisecond)
	if sh.SharedFull == 0 {
		t.Fatal("tiny shared budget must be exhausted under load")
	}
	if sh.MaxUsed > 64 {
		t.Fatalf("shared occupancy %d exceeded budget 64", sh.MaxUsed)
	}
	if sh.Used() < 0 {
		t.Fatalf("negative occupancy %d", sh.Used())
	}
}

// Bypass flows must consume shared ShRing entries — the Fig. 4a failure
// mode where newly arrived CPU-bypass flows steal the fixed I/O buffers
// from CPU-involved flows.
func TestShRingBypassStealsBudget(t *testing.T) {
	run := func(withBypass bool) (float64, uint64) {
		sh := baseline.NewShRing(baseline.DefaultShRingConfig())
		m := iosys.NewMachine(iosys.DefaultConfig(), sh)
		for i := 1; i <= 6; i++ {
			m.AddFlow(kvSpec(i, 256))
		}
		if withBypass {
			m.AddFlow(dfsSpec(100))
			m.AddFlow(dfsSpec(101))
		}
		m.Run(8 * sim.Millisecond)
		m.ResetWindow()
		m.Run(20 * sim.Millisecond)
		return m.InvolvedMeter.Mpps(m.Eng.Now()), sh.SharedFull
	}
	alone, _ := run(false)
	shared, full := run(true)
	t.Logf("involved-only: %.2f Mpps; with bypass: %.2f Mpps (budget-full events %d)", alone, shared, full)
	if shared >= alone {
		t.Errorf("bypass flows should degrade involved throughput: %.2f >= %.2f", shared, alone)
	}
}

func TestHostCCTriggersUnderPressure(t *testing.T) {
	h := baseline.NewHostCC(baseline.DefaultHostCCConfig())
	m := iosys.NewMachine(iosys.DefaultConfig(), h)
	for i := 1; i <= 8; i++ {
		m.AddFlow(kvSpec(i, 256))
	}
	m.Run(20 * sim.Millisecond)
	if h.Triggers == 0 {
		t.Fatal("HostCC never triggered the CCA under heavy LLC pressure")
	}
	var forced uint64
	for _, f := range m.Flows {
		forced += f.CC.ForcedTriggers
	}
	if forced == 0 {
		t.Fatal("no flow observed a forced reduction")
	}
}

func TestHostCCQuietWithoutPressure(t *testing.T) {
	h := baseline.NewHostCC(baseline.DefaultHostCCConfig())
	m := iosys.NewMachine(iosys.DefaultConfig(), h)
	// One light flow: no misses, no congestion, no triggers.
	spec := kvSpec(1, 1024)
	spec.InitialRate = 1e9
	m.AddFlow(spec)
	m.Run(5 * sim.Millisecond)
	if h.Triggers != 0 {
		t.Fatalf("HostCC fired %d triggers on an unloaded machine", h.Triggers)
	}
}

func TestHostCCReactionIsDelayed(t *testing.T) {
	cfg := baseline.DefaultHostCCConfig()
	cfg.ReactionDelay = 2 * sim.Millisecond // exaggerate for observability
	h := baseline.NewHostCC(cfg)
	m := iosys.NewMachine(iosys.DefaultConfig(), h)
	for i := 1; i <= 8; i++ {
		m.AddFlow(kvSpec(i, 256))
	}
	// Run until first detection; the forced reduction must not have
	// reached any flow before the reaction delay elapses.
	for h.Triggers == 0 && m.Eng.Now() < 20*sim.Millisecond {
		m.Run(m.Eng.Now() + 100*sim.Microsecond)
	}
	if h.Triggers == 0 {
		t.Fatal("no trigger observed")
	}
	var forced uint64
	for _, f := range m.Flows {
		forced += f.CC.ForcedTriggers
	}
	if forced != 0 {
		t.Fatal("reduction applied before the reaction delay")
	}
	m.Run(m.Eng.Now() + 3*sim.Millisecond)
	forced = 0
	for _, f := range m.Flows {
		forced += f.CC.ForcedTriggers
	}
	if forced == 0 {
		t.Fatal("reduction never arrived after the reaction delay")
	}
}

// A removed flow's trigger cooldown leaves with it: a flow re-added under
// the same ID inside the old cooldown window is still force-reduced at
// the next congested sample.
func TestHostCCReAddedFlowTriggersInsideCooldown(t *testing.T) {
	cfg := baseline.DefaultHostCCConfig()
	cfg.IIOThreshold = -1     // every sample counts as congested
	cfg.Cooldown = sim.Second // far longer than the test runs
	h := baseline.NewHostCC(cfg)
	m := iosys.NewMachine(iosys.DefaultConfig(), h)
	m.AddFlow(kvSpec(1, 256))
	for h.Triggers == 0 && m.Eng.Now() < sim.Millisecond {
		m.Run(m.Eng.Now() + cfg.Period)
	}
	if h.Triggers != 1 {
		t.Fatalf("first flow: %d triggers, want 1", h.Triggers)
	}
	m.RemoveFlow(1)
	f := m.AddFlow(kvSpec(1, 256))
	m.Run(m.Eng.Now() + 2*cfg.Period)
	if h.Triggers != 2 {
		t.Fatalf("re-added flow inherited the removed flow's cooldown: %d triggers, want 2", h.Triggers)
	}
	m.Run(m.Eng.Now() + cfg.ReactionDelay)
	if f.CC.ForcedTriggers == 0 {
		t.Fatal("the re-added flow never saw its forced reduction")
	}
}

// ShRing frees a CPU-bypass packet's shared entry at delivery: with only
// bypass traffic the budget fills while data is in flight and drains
// back to zero once the senders stop.
func TestShRingBypassOnlyDrainsBudget(t *testing.T) {
	sh := baseline.NewShRing(baseline.DefaultShRingConfig())
	m := iosys.NewMachine(iosys.DefaultConfig(), sh)
	flows := []*iosys.Flow{m.AddFlow(dfsSpec(1)), m.AddFlow(dfsSpec(2))}
	m.Run(5 * sim.Millisecond)
	if sh.MaxUsed == 0 {
		t.Fatal("bypass traffic never took a shared entry")
	}
	for _, f := range flows {
		m.PauseFlow(f.ID)
	}
	m.Run(m.Eng.Now() + 5*sim.Millisecond)
	if sh.Used() != 0 {
		t.Fatalf("%d shared entries still held after the bypass flows drained", sh.Used())
	}
	for _, f := range flows {
		if f.Delivered.Packets+f.Drops != f.Generated {
			t.Fatalf("flow %d: delivered %d + dropped %d != generated %d",
				f.ID, f.Delivered.Packets, f.Drops, f.Generated)
		}
	}
}

package iosys_test

import (
	"testing"

	"ceio/internal/baseline"
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/sim"
	"ceio/internal/telemetry"
)

func echoSpec(id, size int) iosys.FlowSpec {
	return iosys.FlowSpec{
		ID: id, Kind: iosys.CPUInvolved, PktSize: size, MsgPkts: 1,
		Cost: iosys.CostModel{PerPacket: 10 * sim.Nanosecond, ZeroCopy: true},
	}
}

func bypassSpec(id, size, msgPkts int) iosys.FlowSpec {
	return iosys.FlowSpec{ID: id, Kind: iosys.CPUBypass, PktSize: size, MsgPkts: msgPkts}
}

// kvSpec models an eRPC-style key-value flow: ~150ns of application work
// per request makes the CPU the bottleneck at line-rate small packets,
// which is the memory-pressure regime of the paper's evaluation.
func kvSpec(id, size int) iosys.FlowSpec {
	return iosys.FlowSpec{
		ID: id, Kind: iosys.CPUInvolved, PktSize: size, MsgPkts: 1,
		Cost: iosys.CostModel{PerPacket: 150 * sim.Nanosecond, ZeroCopy: true},
	}
}

func TestLegacySingleFlowDelivers(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
	f := m.AddFlow(echoSpec(1, 1024))
	m.Run(5 * sim.Millisecond)
	if f.Delivered.Packets == 0 {
		t.Fatal("no packets delivered")
	}
	gbps := f.Delivered.Gbps(m.Eng.Now())
	// A single 1024B flow should push tens of Gbps through the fast path.
	if gbps < 10 {
		t.Fatalf("throughput = %.1f Gbps, want >= 10", gbps)
	}
	if f.Drops > f.Generated/2 {
		t.Fatalf("excessive drops: %d of %d", f.Drops, f.Generated)
	}
}

func TestDeliveryOrderPerFlow(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
	last := map[int]uint64{}
	m.OnDeliver = func(f *iosys.Flow, p *pkt.Packet) {
		if prev, ok := last[f.ID]; ok && p.Seq <= prev {
			t.Fatalf("flow %d delivered seq %d after %d", f.ID, p.Seq, prev)
		}
		last[f.ID] = p.Seq
	}
	for i := 1; i <= 4; i++ {
		m.AddFlow(echoSpec(i, 512))
	}
	m.Run(2 * sim.Millisecond)
	if len(last) != 4 {
		t.Fatalf("deliveries for %d flows, want 4", len(last))
	}
}

func TestBypassFlowDelivers(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
	f := m.AddFlow(bypassSpec(1, 1500, 64))
	m.Run(5 * sim.Millisecond)
	if f.Delivered.Packets == 0 {
		t.Fatal("bypass flow delivered nothing")
	}
	if gbps := f.Delivered.Gbps(m.Eng.Now()); gbps < 20 {
		t.Fatalf("bypass throughput = %.1f Gbps, want >= 20", gbps)
	}
}

func TestOverloadCausesLLCMissesOnBaseline(t *testing.T) {
	cfg := iosys.DefaultConfig()
	m := iosys.NewMachine(cfg, baseline.NewLegacy())
	// 8 small-packet flows: CPU-bound consumption, in-flight data far
	// beyond the 6MB DDIO region.
	for i := 1; i <= 8; i++ {
		m.AddFlow(kvSpec(i, 256))
	}
	m.Run(10 * sim.Millisecond)
	m.ResetWindow()
	m.Run(20 * sim.Millisecond)
	if mr := m.LLC.MissRate(); mr < 0.2 {
		t.Fatalf("baseline miss rate = %.2f, want substantial (paper: 88%%)", mr)
	}
}

func TestShRingBoundsInFlightData(t *testing.T) {
	cfg := iosys.DefaultConfig()
	sh := baseline.NewShRing(baseline.DefaultShRingConfig())
	m := iosys.NewMachine(cfg, sh)
	for i := 1; i <= 8; i++ {
		m.AddFlow(kvSpec(i, 256))
	}
	m.Run(10 * sim.Millisecond)
	m.ResetWindow()
	m.Run(20 * sim.Millisecond)
	if mr := m.LLC.MissRate(); mr > 0.05 {
		t.Fatalf("ShRing miss rate = %.3f, want ~0", mr)
	}
	// The fixed buffer must have caused drops (CCA triggers).
	if m.TotalDrops == 0 && sh.SharedFull == 0 {
		t.Fatal("ShRing under overload should hit its shared budget")
	}
}

func TestHostCCReducesMissesVersusBaseline(t *testing.T) {
	run := func(dp iosys.Datapath) (miss float64, mpps float64) {
		cfg := iosys.DefaultConfig()
		m := iosys.NewMachine(cfg, dp)
		for i := 1; i <= 8; i++ {
			m.AddFlow(kvSpec(i, 256))
		}
		m.Run(10 * sim.Millisecond)
		m.ResetWindow()
		m.Run(30 * sim.Millisecond)
		return m.LLC.MissRate(), m.InvolvedMeter.Mpps(m.Eng.Now())
	}
	bMiss, bMpps := run(baseline.NewLegacy())
	hMiss, hMpps := run(baseline.NewHostCC(baseline.DefaultHostCCConfig()))
	t.Logf("baseline: miss=%.2f mpps=%.2f; hostcc: miss=%.2f mpps=%.2f", bMiss, bMpps, hMiss, hMpps)
	if hMiss >= bMiss {
		t.Fatalf("HostCC miss %.2f should beat baseline %.2f", hMiss, bMiss)
	}
	if hMpps < bMpps*0.95 {
		t.Fatalf("HostCC throughput %.2f should not fall below baseline %.2f", hMpps, bMpps)
	}
}

// RemoveFlow stops the generator and detaches the flow from its core in
// both CPU layouts; the core stops polling once its last flow leaves.
func TestRemoveFlowStopsTraffic(t *testing.T) {
	for _, cores := range []int{0, 2} {
		cfg := iosys.DefaultConfig()
		cfg.Cores = cores
		m := iosys.NewMachine(cfg, baseline.NewLegacy())
		f := m.AddFlow(echoSpec(1, 512))
		m.Run(1 * sim.Millisecond)
		c := m.Core(1)
		m.RemoveFlow(1)
		gen := f.Generated
		m.Run(2 * sim.Millisecond)
		if f.Generated != gen {
			t.Fatalf("cores=%d: removed flow kept generating", cores)
		}
		if c.FlowCount() != 0 || m.Core(1) != nil {
			t.Fatalf("cores=%d: removed flow still attached (core drains %d flows)", cores, c.FlowCount())
		}
		polls := c.Polls
		m.Run(3 * sim.Millisecond)
		if c.Polls != polls {
			t.Fatalf("cores=%d: core kept polling after its last flow left", cores)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, int64) {
		cfg := iosys.DefaultConfig()
		cfg.Seed = 7
		m := iosys.NewMachine(cfg, baseline.NewLegacy())
		for i := 1; i <= 4; i++ {
			m.AddFlow(echoSpec(i, 300))
		}
		m.Run(5 * sim.Millisecond)
		var lat int64
		for _, f := range m.Flows {
			lat += f.Latency.P99()
		}
		return m.Delivered.Packets, m.TotalDrops, lat
	}
	p1, d1, l1 := run()
	p2, d2, l2 := run()
	if p1 != p2 || d1 != d2 || l1 != l2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", p1, d1, l1, p2, d2, l2)
	}
}

// TestSamplerRecordsSeries: the machine's registry series, sampled on
// the engine clock, see a busy flow's delivered packets.
func TestSamplerRecordsSeries(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
	s := telemetry.NewSampler(m.Eng, m.Reg, sim.Millisecond, nil)
	m.AddFlow(echoSpec(1, 1024))
	m.Run(5 * sim.Millisecond)
	s.Stop()
	pts := s.Points("iosys.involved.packets_total")
	if len(pts) < 4 {
		t.Fatalf("series points = %d", len(pts))
	}
	if pts[len(pts)-1].V <= 0 {
		t.Fatal("sampler saw no throughput")
	}
}

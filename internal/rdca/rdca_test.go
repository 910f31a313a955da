package rdca_test

import (
	"testing"

	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/rdca"
	"ceio/internal/sim"
	"ceio/internal/tenant"
)

func kvSpec(id int) iosys.FlowSpec {
	return iosys.FlowSpec{
		ID: id, Kind: iosys.CPUInvolved, PktSize: 144, MsgPkts: 1,
		Cost: iosys.CostModel{PerPacket: 150 * sim.Nanosecond, ZeroCopy: true},
	}
}

func dfsSpec(id int) iosys.FlowSpec {
	return iosys.FlowSpec{ID: id, Kind: iosys.CPUBypass, PktSize: 1024, MsgPkts: 1024, PostPasses: 2}
}

// TestWindowConservationUnderRepartitioning is the FuzzRepartition-style
// conservation property for the window controller: with a dynamically
// repartitioned tenant carve shifting LLC ways underneath the windows,
// every audit sweep must find non-negative per-partition inFlight and
// pending counts, resident packet buffers bounded by the admitted
// population, windows inside their (moving) caps, and LLC partition
// occupancies still summing to the machine total.
func TestWindowConservationUnderRepartitioning(t *testing.T) {
	specs, err := tenant.ParseSpecs("kv=2,bulk=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := iosys.DefaultConfig()
	cfg.Tenancy = &tenant.Config{Mode: tenant.ModeDynamic, Specs: specs}
	dp := rdca.New(rdca.DefaultOptions())
	m := iosys.NewMachine(cfg, dp)

	kv := kvSpec(1)
	kv.Tenant = "kv"
	m.AddFlow(kv)
	dfs := dfsSpec(2)
	dfs.Tenant = "bulk"
	dfs.BurstOn = 200 * sim.Microsecond
	dfs.BurstOff = 200 * sim.Microsecond
	m.AddFlow(dfs)

	for step := 0; step < 50; step++ {
		m.Run(m.Eng.Now() + 100*sim.Microsecond)
		if err := dp.AuditWindows(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		var sum int64
		for pi := 0; pi < m.LLC.Partitions(); pi++ {
			if w, c := dp.Window(pi), dp.WindowCap(pi); w < 1 || w > c {
				t.Fatalf("step %d: partition %d window %d outside [1,%d]", step, pi, w, c)
			}
			sum += m.LLC.PartOccupancy(pi)
		}
		if sum != m.LLC.Occupancy() {
			t.Fatalf("step %d: partition occupancies sum to %d, machine total %d", step, sum, m.LLC.Occupancy())
		}
	}
	if m.Delivered.Packets == 0 {
		t.Fatal("no packets delivered")
	}
}

// TestRecyclingKeepsResidency is the end-to-end recycling property: with
// offered load the admission window can hold, every consumed buffer was
// recycled before eviction, so the run finishes with zero LLC misses —
// the cache-resident rx path RDCA promises.
func TestRecyclingKeepsResidency(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), rdca.New(rdca.DefaultOptions()))
	kv := kvSpec(1)
	kv.InitialRate = 4e9 / 8
	kv.FixedRate = true
	m.AddFlow(kv)
	dfs := dfsSpec(2)
	dfs.InitialRate = 20e9 / 8
	dfs.FixedRate = true
	m.AddFlow(dfs)
	m.Run(5 * sim.Millisecond)
	if m.Delivered.Packets == 0 {
		t.Fatal("no packets delivered")
	}
	if m.LLC.Misses != 0 {
		t.Fatalf("windowed load took %d LLC misses, want 0 (recycled buffers must not age out)", m.LLC.Misses)
	}
}

// TestFlowRemovedDrainsParkedPackets pins the fault-episode interaction
// DESIGN.md documents: tearing a flow down mid-window (a host crash, a
// fleet migration) drains its parked arrivals as drops and leaves no
// stale entries behind for the auditor to find.
func TestFlowRemovedDrainsParkedPackets(t *testing.T) {
	opts := rdca.DefaultOptions()
	opts.FixedWindow = 4 // tiny window: arrivals park immediately
	dp := rdca.New(opts)
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	m.AddFlow(dfsSpec(1))
	m.Run(500 * sim.Microsecond)
	if dp.Pending(0) == 0 {
		t.Fatal("expected parked arrivals behind the 4-buffer window")
	}
	m.RemoveFlow(1)
	if got := dp.Pending(0); got != 0 {
		t.Fatalf("%d packets still parked after flow removal", got)
	}
	if err := dp.AuditWindows(); err != nil {
		t.Fatal(err)
	}
	if m.Flows[1] != nil {
		t.Fatal("flow still registered after removal")
	}
	m.Run(m.Eng.Now() + 500*sim.Microsecond) // in-flight admissions drain quietly
	if err := dp.AuditWindows(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerReactsToCachePressure squeezes the DDIO region below
// what even the MinWindow floor of in-flight buffers occupies
// (8 × 2 KB in an 8 KB partition), so residency is unholdable: the
// eviction sink must see in-flight buffers pushed out, the imminence
// probe must see survivors crowding the LRU tail, and both shrink
// paths plus the saturation-grow probe must fire. This is the proof
// the controller's signals are wired, not decorative.
func TestControllerReactsToCachePressure(t *testing.T) {
	cfg := iosys.DefaultConfig()
	cfg.LLCBytes = 8 << 10
	dp := rdca.New(rdca.DefaultOptions())
	m := iosys.NewMachine(cfg, dp)
	slow := iosys.FlowSpec{
		ID: 1, Kind: iosys.CPUInvolved, PktSize: 2048, MsgPkts: 1,
		Cost: iosys.CostModel{PerPacket: 2 * sim.Microsecond, ZeroCopy: true},
	}
	m.AddFlow(slow)
	m.Run(5 * sim.Millisecond)
	if dp.Grows == 0 {
		t.Fatal("controller never probed the window upward under saturation")
	}
	if dp.ImminentShrinks == 0 {
		t.Fatal("imminence probe never fired with in-flight buffers at the LRU tail")
	}
	if dp.EvictedInflight == 0 || dp.EvictShrinks == 0 {
		t.Fatalf("eviction sink unwired: evicted=%d shrinks=%d, want both > 0", dp.EvictedInflight, dp.EvictShrinks)
	}
	// An evicted in-flight buffer is re-read from DRAM at consume time:
	// every sink hit surfaces as an LLC miss, and only those do.
	if m.LLC.Misses != dp.EvictedInflight {
		t.Fatalf("LLC misses %d != evicted in-flight buffers %d", m.LLC.Misses, dp.EvictedInflight)
	}
	if err := dp.AuditWindows(); err != nil {
		t.Fatal(err)
	}
}

// TestFixedWindowPinsController checks the sweep knob: a FixedWindow
// datapath never resizes, whatever the pressure.
func TestFixedWindowPinsController(t *testing.T) {
	opts := rdca.DefaultOptions()
	opts.FixedWindow = 32
	dp := rdca.New(opts)
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	m.AddFlow(dfsSpec(1))
	m.Run(5 * sim.Millisecond)
	if got := dp.Window(0); got != 32 {
		t.Fatalf("fixed window drifted to %d, want 32", got)
	}
}

// deliveryCheck wraps RDCA to check, after each delivery, that the
// packet's buffer has left the LLC.
type deliveryCheck struct {
	*rdca.RDCA
	t *testing.T
	m *iosys.Machine
}

func (c *deliveryCheck) Attach(m *iosys.Machine) {
	c.m = m
	c.RDCA.Attach(m)
}

func (c *deliveryCheck) OnDelivered(f *iosys.Flow, p *pkt.Packet) {
	c.RDCA.OnDelivered(f, p)
	if c.m.LLC.Resident(p.LLC, p.Buf) {
		c.t.Fatalf("flow %d packet %d still resident after delivery", f.ID, p.Seq)
	}
}

// TestResidentPacketBuffersAreInFlight pins what lets RDCA keep no record
// of its in-flight buffers: every packet buffer resident in the LLC is
// admitted and undelivered, so the imminence probe and the eviction sink
// may take every resident packet buffer for an in-flight one. Only
// admission DMAs, so a resident buffer was admitted; no delivered buffer
// stays resident; and no partition holds more resident packet buffers
// than it has admitted (AuditWindows). The run mixes pipeline state
// lines, CPU-involved and bypass flows in an LLC small enough that both
// controller signals fire.
func TestResidentPacketBuffersAreInFlight(t *testing.T) {
	cfg := iosys.DefaultConfig()
	cfg.LLCBytes = 128 << 10
	opts := rdca.DefaultOptions()
	opts.ResidencyTarget = 1.5 // a window cap past the region: evictions happen
	dp := &deliveryCheck{RDCA: rdca.New(opts), t: t}
	m := iosys.NewMachine(cfg, dp)
	for id := 1; id <= 4; id++ {
		kv := kvSpec(id)
		if id <= 2 {
			kv.Pipeline = []string{"nat64", "firewall", "upf"}
		} else {
			kv.Cost.PerPacket = 5 * sim.Microsecond // buffers age in the ring
		}
		m.AddFlow(kv)
	}
	dfs := dfsSpec(5)
	dfs.BurstOn = 100 * sim.Microsecond
	dfs.BurstOff = 100 * sim.Microsecond
	m.AddFlow(dfs)
	for m.Eng.Now() < 3*sim.Millisecond {
		m.Run(m.Eng.Now() + 10*sim.Microsecond)
		if err := dp.AuditWindows(); err != nil {
			t.Fatalf("at %v: %v", m.Eng.Now(), err)
		}
	}
	if dp.EvictedInflight == 0 || dp.ImminentShrinks == 0 || dp.Demoted == 0 {
		t.Fatalf("signals not exercised: evicted %d, imminent shrinks %d, demoted %d",
			dp.EvictedInflight, dp.ImminentShrinks, dp.Demoted)
	}
	if m.Pipes.ResidentBytes() == 0 {
		t.Fatal("no state line resident: the probe never had a line to skip")
	}
}

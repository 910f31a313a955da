package dataplane

import (
	"testing"

	"ceio/internal/cache"
	"ceio/internal/sim"
)

func newTestEngine(capacity int64) (*Engine, *cache.LLC, *cache.Memory) {
	llc := cache.NewLLC(capacity)
	eng := sim.NewEngine(1)
	mem := cache.NewMemory(eng, 100e9, 90*sim.Nanosecond)
	var e *Engine
	sink := func(evs []cache.Evicted) {
		for _, ev := range evs {
			if IsStateLine(ev.ID) {
				e.StateEvicted(ev.ID)
			}
		}
	}
	e = NewEngine(llc, mem, 18*sim.Nanosecond, sink)
	return e, llc, mem
}

func TestValidateChain(t *testing.T) {
	if err := ValidateChain(nil); err != nil {
		t.Fatalf("empty chain: %v", err)
	}
	if err := ValidateChain([]string{"nat64", "acl-trie", "firewall"}); err != nil {
		t.Fatalf("valid chain: %v", err)
	}
	if err := ValidateChain([]string{"nat64", "bogus"}); err == nil {
		t.Fatal("unknown module accepted")
	}
	if err := ValidateChain([]string{"nat64", "nat64"}); err == nil {
		t.Fatal("duplicate module accepted")
	}
}

func TestResolveSharesModules(t *testing.T) {
	e, _, _ := newTestEngine(6 << 20)
	c1, created1, err := e.Resolve([]string{"nat64", "firewall"})
	if err != nil {
		t.Fatal(err)
	}
	if len(created1) != 2 || len(e.Modules()) != 2 {
		t.Fatalf("created %d modules, registry %d", len(created1), len(e.Modules()))
	}
	ws1 := c1[1].WorkingSetBytes()
	c2, created2, err := e.Resolve([]string{"firewall"})
	if err != nil {
		t.Fatal(err)
	}
	if len(created2) != 0 {
		t.Fatal("second flow re-instantiated a shared module")
	}
	if c2[0] != c1[1] {
		t.Fatal("flows did not share the firewall instance")
	}
	if c2[0].Flows() != 2 {
		t.Fatalf("flows = %d, want 2", c2[0].Flows())
	}
	if c2[0].WorkingSetBytes() <= ws1 {
		t.Fatal("per-flow state did not grow the working set")
	}
	e.FlowDetached(c2)
	if c1[1].Flows() != 1 {
		t.Fatalf("flows after detach = %d, want 1", c1[1].Flows())
	}
}

func TestPacketCostConservation(t *testing.T) {
	e, _, _ := newTestEngine(6 << 20)
	chain, _, err := e.Resolve([]string{"nat64", "acl-trie", "firewall"})
	if err != nil {
		t.Fatal(err)
	}
	var sum sim.Time
	for seq := uint64(0); seq < 500; seq++ {
		sum += e.PacketCost(chain, 0, 1, seq)
	}
	if sum != e.TotalBusy {
		t.Fatalf("charged %v, TotalBusy %v", sum, e.TotalBusy)
	}
	var perMod sim.Time
	for _, mod := range e.Modules() {
		perMod += mod.Busy
		if mod.Packets != 500 {
			t.Fatalf("%s packets = %d, want 500", mod.Name, mod.Packets)
		}
		if mod.Hits+mod.Misses != mod.Packets*uint64(mod.Touches) {
			t.Fatalf("%s touches %d+%d, want %d", mod.Name, mod.Hits, mod.Misses, mod.Packets*uint64(mod.Touches))
		}
	}
	if perMod != e.TotalBusy {
		t.Fatalf("per-module busy %v, TotalBusy %v", perMod, e.TotalBusy)
	}
}

func TestPacketCostDeterministic(t *testing.T) {
	run := func() (sim.Time, uint64) {
		e, _, _ := newTestEngine(256 << 10)
		chain, _, _ := e.Resolve([]string{"upf", "firewall"})
		for seq := uint64(0); seq < 1000; seq++ {
			e.PacketCost(chain, 0, 7, seq)
		}
		var misses uint64
		for _, mod := range e.Modules() {
			misses += mod.Misses
		}
		return e.TotalBusy, misses
	}
	b1, m1 := run()
	b2, m2 := run()
	if b1 != b2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", b1, m1, b2, m2)
	}
	if m1 == 0 {
		t.Fatal("upf's 2MB table in a 256KB LLC should miss")
	}
}

func TestResidentGaugeTracksLLC(t *testing.T) {
	e, llc, _ := newTestEngine(128 << 10)
	chain, _, err := e.Resolve([]string{"upf"})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 5000; seq++ {
		e.PacketCost(chain, 0, 1, seq)
	}
	// Only state lines live in this LLC, so the engine's residency gauge
	// must equal the LLC occupancy exactly.
	if got, want := e.ResidentBytes(), llc.Occupancy(); got != want {
		t.Fatalf("ResidentBytes %d, LLC occupancy %d", got, want)
	}
	mod := e.Modules()[0]
	if mod.Resident < 0 || mod.Resident > mod.WorkingSetBytes() {
		t.Fatalf("resident %d outside [0, %d]", mod.Resident, mod.WorkingSetBytes())
	}
}

// TestResidentGaugeCountsResidentLines pins each module's Resident gauge
// to the LLC's contents through a zero-way carve and a refill: it must
// equal LineBytes times the module's state lines actually resident, with
// TouchState's filled report the only residency signal PacketCost reads.
func TestResidentGaugeCountsResidentLines(t *testing.T) {
	const capacity = 256 << 10
	e, llc, _ := newTestEngine(capacity)
	if err := llc.Partition([]int64{capacity / 2, capacity / 2}); err != nil {
		t.Fatal(err)
	}
	chain, _, err := e.Resolve([]string{"nat64", "upf"})
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	run := func(part int) {
		for end := seq + 2000; seq < end; seq++ {
			e.PacketCost(chain, part, 1, seq)
		}
	}
	check := func(stage string) {
		t.Helper()
		for _, mod := range chain {
			var lines int64
			for l := 0; l < mod.lines; l++ {
				if llc.Resident(stateLineID(mod.idx, l)) {
					lines++
				}
			}
			if mod.Resident != LineBytes*lines {
				t.Fatalf("%s: %s Resident %d, want %d × %d resident lines", stage, mod.Name, mod.Resident, LineBytes, lines)
			}
		}
	}
	sink := func(evs []cache.Evicted) {
		for _, ev := range evs {
			e.StateEvicted(ev.ID)
		}
	}

	run(1)
	check("partition 1 warm")
	sink(llc.MoveCapacity(1, 0, capacity/2)) // zero-way carve of partition 1
	check("after carve")
	run(1) // every miss bypasses
	check("touches into the zero-way partition")
	run(0)
	run(1) // hits on lines partition 0 holds, bypass elsewhere
	check("zero-way partition beside a warm one")
	sink(llc.MoveCapacity(0, 1, capacity/4)) // refill partition 1
	run(1)
	check("after refill")
	if chain[1].Resident == 0 {
		t.Fatal("refill left upf with no resident state; the check proved nothing")
	}
}

func TestResetWindowKeepsResident(t *testing.T) {
	e, _, _ := newTestEngine(6 << 20)
	chain, _, _ := e.Resolve([]string{"vxlan"})
	e.PacketCost(chain, 0, 1, 0)
	res := e.ResidentBytes()
	e.ResetWindow()
	if e.TotalBusy != 0 || e.Modules()[0].Packets != 0 {
		t.Fatal("window counters not reset")
	}
	if e.ResidentBytes() != res {
		t.Fatal("reset must not clear the resident gauge")
	}
}

// FuzzPipeline drives random module chains, packets, competing I/O
// inserts, and flow detaches through one engine, checking after every
// step that (a) cycles are conserved — the sum of per-module Busy always
// equals TotalBusy, which always equals the sum of every PacketCost
// return — and (b) the LLC occupancy sums stay coherent: partition
// occupancies add up to the global occupancy, never exceed capacity,
// and the engine's state-residency gauge plus tracked I/O bytes equals
// the LLC's occupancy exactly (no line leaked or double-counted).
func FuzzPipeline(f *testing.F) {
	f.Add([]byte{0x01, 0x13, 0x42, 0x37, 0x81, 0x02, 0x55})
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x10, 0x20, 0x30, 0x40, 0x99})
	f.Add([]byte{0x03, 0x3f, 0x07, 0x07, 0x07, 0xc1, 0xc2, 0xc3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 256 << 10
		llc := cache.NewLLC(capacity)
		if err := llc.Partition([]int64{capacity / 2, capacity / 2}); err != nil {
			t.Fatal(err)
		}
		seng := sim.NewEngine(1)
		mem := cache.NewMemory(seng, 100e9, 90*sim.Nanosecond)

		// Track resident I/O buffers the way iosys does, via the eviction
		// sink, so state + I/O bytes can be reconciled with occupancy.
		ioResident := map[cache.BufID]int64{}
		var e *Engine
		sink := func(evs []cache.Evicted) {
			for _, ev := range evs {
				if IsStateLine(ev.ID) {
					e.StateEvicted(ev.ID)
				} else {
					delete(ioResident, ev.ID)
				}
			}
		}
		e = NewEngine(llc, mem, 18*sim.Nanosecond, sink)

		names := Names()
		var chains [][]*Module
		var charged sim.Time
		nextIO := cache.BufID(1)
		seq := uint64(0)

		check := func() {
			t.Helper()
			if llc.Occupancy() > llc.Capacity() {
				t.Fatalf("occupancy %d exceeds capacity %d", llc.Occupancy(), llc.Capacity())
			}
			var parts int64
			for i := 0; i < llc.Partitions(); i++ {
				if llc.PartOccupancy(i) < 0 || llc.PartOccupancy(i) > llc.PartCapacity(i) {
					t.Fatalf("partition %d occupancy %d outside [0, %d]", i, llc.PartOccupancy(i), llc.PartCapacity(i))
				}
				parts += llc.PartOccupancy(i)
			}
			if parts != llc.Occupancy() {
				t.Fatalf("partition occupancies sum to %d, global %d", parts, llc.Occupancy())
			}
			if charged != e.TotalBusy {
				t.Fatalf("charged %v, TotalBusy %v", charged, e.TotalBusy)
			}
			var busy sim.Time
			for _, mod := range e.Modules() {
				busy += mod.Busy
				if mod.Resident < 0 {
					t.Fatalf("%s resident %d < 0", mod.Name, mod.Resident)
				}
				if mod.Hits+mod.Misses != modTouches(mod) {
					t.Fatalf("%s hits+misses %d, want packets*touches %d", mod.Name, mod.Hits+mod.Misses, modTouches(mod))
				}
			}
			if busy != e.TotalBusy {
				t.Fatalf("per-module busy %v, TotalBusy %v", busy, e.TotalBusy)
			}
			var io int64
			for id, size := range ioResident {
				if !llc.Resident(id) {
					t.Fatalf("tracked I/O buffer %d not in LLC", id)
				}
				io += size
			}
			if e.ResidentBytes()+io != llc.Occupancy() {
				t.Fatalf("state %d + io %d != occupancy %d", e.ResidentBytes(), io, llc.Occupancy())
			}
		}

		for i := 0; i+1 < len(data) && i < 512; i += 2 {
			op, arg := data[i], data[i+1]
			part := int(op>>2) % 2
			switch op % 4 {
			case 0: // resolve a chain from the arg bitmask
				var chain []string
				for b, n := range names {
					if arg&(1<<uint(b)) != 0 {
						chain = append(chain, n)
					}
				}
				mods, _, err := e.Resolve(chain)
				if err != nil {
					t.Fatalf("resolve %v: %v", chain, err)
				}
				if len(mods) > 0 {
					chains = append(chains, mods)
				}
			case 1: // run a packet through an existing chain
				if len(chains) == 0 {
					continue
				}
				chain := chains[int(arg)%len(chains)]
				charged += e.PacketCost(chain, part, int(arg), seq)
				seq++
			case 2: // competing I/O buffer DMA, as dmaArrived does
				size := int64(arg)%2048 + 64
				evs := llc.InsertIOSized(part, nextIO, size, size)
				resident := llc.Resident(nextIO)
				if resident {
					ioResident[nextIO] = size
				}
				sink(evs)
				nextIO++
			case 3: // detach a flow from its chain
				if len(chains) == 0 {
					continue
				}
				k := int(arg) % len(chains)
				e.FlowDetached(chains[k])
				chains = append(chains[:k], chains[k+1:]...)
			}
			check()
		}
	})
}

// modTouches returns the total state touches a module should have
// recorded for its packet count.
func modTouches(mod *Module) uint64 {
	return mod.Packets * uint64(mod.Touches)
}

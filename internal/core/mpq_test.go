package core_test

import (
	"testing"

	"ceio/internal/core"
	"ceio/internal/iosys"
	"ceio/internal/sim"
)

func mpqOptions() core.Options {
	o := core.DefaultOptions()
	o.MPQ = true
	return o
}

func TestMPQSchedulerRuns(t *testing.T) {
	dp := core.New(mpqOptions())
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	f := m.AddFlow(kvSpec(1, 512))
	m.Run(5 * sim.Millisecond)
	if f.Delivered.Packets == 0 {
		t.Fatal("MPQ scheduler delivered nothing")
	}
	if dp.FastPackets == 0 {
		t.Fatal("MPQ never admitted to the fast path")
	}
}

// Priority must decay with cumulative bytes (PIAS behaviour).
func TestMPQPriorityDecay(t *testing.T) {
	dp := core.New(mpqOptions())
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	m.AddFlow(kvSpec(1, 1024))
	m.Run(200 * sim.Microsecond)
	early := dp.FlowPriority(1)
	m.Run(30 * sim.Millisecond)
	late := dp.FlowPriority(1)
	t.Logf("priority early=%d late=%d", early, late)
	if late <= early {
		t.Fatalf("continuous flow should decay in priority: early=%d late=%d", early, late)
	}
	if late != 3 {
		t.Fatalf("a multi-MB flow should reach the lowest priority, got %d", late)
	}
}

// The paper's argument (§4.1): under MPQ, continuous CPU-involved flows
// decay to low priority and lose the fast-path access that CEIO's lazy
// release preserves. The damage shows as demotion to the slow path —
// lower fast-path share and worse involved tail latency.
func TestMPQWorseThanLazyReleaseOnMixedFlows(t *testing.T) {
	run := func(opts core.Options) (p99 int64, fastShare float64) {
		dp := core.New(opts)
		m := iosys.NewMachine(iosys.DefaultConfig(), dp)
		for i := 1; i <= 4; i++ {
			m.AddFlow(kvSpec(i, 144))
		}
		for i := 5; i <= 8; i++ {
			m.AddFlow(dfsSpec(i))
		}
		m.Run(8 * sim.Millisecond)
		m.ResetWindow()
		m.Run(20 * sim.Millisecond)
		for i := 1; i <= 4; i++ {
			if v := m.Flows[i].Latency.P99(); v > p99 {
				p99 = v
			}
		}
		return p99, float64(dp.FastPackets) / float64(dp.FastPackets+dp.SlowPackets)
	}
	lazyP99, lazyFast := run(core.DefaultOptions())
	mpqP99, mpqFast := run(mpqOptions())
	t.Logf("lazy: P99=%dns fast=%.2f | mpq: P99=%dns fast=%.2f", lazyP99, lazyFast, mpqP99, mpqFast)
	if lazyFast <= mpqFast {
		t.Errorf("lazy release fast-path share %.2f should exceed MPQ's %.2f", lazyFast, mpqFast)
	}
	if lazyP99 >= mpqP99 {
		t.Errorf("lazy release P99 %dns should beat MPQ's %dns", lazyP99, mpqP99)
	}
}

func TestMPQReserveMath(t *testing.T) {
	if p := core.MPQPriorityOf(0); p != 0 {
		t.Fatalf("fresh flow priority = %d", p)
	}
	if p := core.MPQPriorityOf(200 << 10); p != 1 {
		t.Fatalf("200KB priority = %d", p)
	}
	if p := core.MPQPriorityOf(100 << 20); p != 3 {
		t.Fatalf("100MB priority = %d", p)
	}
	if r := core.MPQReserveFor(0, 1000); r != 0 {
		t.Fatalf("priority 0 reserve = %d", r)
	}
	if r := core.MPQReserveFor(2, 1000); r != 400 {
		t.Fatalf("priority 2 reserve = %d, want 400", r)
	}
	if r := core.MPQReserveFor(10, 1000); r != 1000 {
		t.Fatalf("reserve must clamp at total, got %d", r)
	}
}

package iosys_test

import (
	"testing"
	"unsafe"

	"ceio/internal/baseline"
	"ceio/internal/iosys"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// The non-zero-copy cost model (LineFS-style memcpy path) must charge
// copy time and occasional app-buffer misses, reducing throughput versus
// an otherwise identical zero-copy flow (§6.4's zero-copy lesson).
func TestMemcpyCostReducesThroughput(t *testing.T) {
	run := func(zeroCopy bool) float64 {
		m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
		spec := workload.LineFSCopy(1, 1024)
		if zeroCopy {
			spec.Cost.ZeroCopy = true
		}
		m.AddFlow(spec)
		m.Run(5 * sim.Millisecond)
		m.ResetWindow()
		m.Run(10 * sim.Millisecond)
		return m.Delivered.Mpps(m.Eng.Now())
	}
	zc, copying := run(true), run(false)
	t.Logf("zero-copy: %.2f Mpps, memcpy: %.2f Mpps", zc, copying)
	if copying >= zc {
		t.Fatalf("memcpy path should be slower: %.2f >= %.2f", copying, zc)
	}
}

// Core accounting: utilization and poll counters track the load.
func TestCoreAccounting(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
	m.AddFlow(kvSpec(1, 256))
	m.Run(5 * sim.Millisecond)
	c := m.Core(1)
	if c == nil {
		t.Fatal("no core for involved flow")
	}
	if c.Polls == 0 || c.Processed == 0 {
		t.Fatalf("polls=%d processed=%d", c.Polls, c.Processed)
	}
	u := c.Utilization(m.Eng.Now())
	if u <= 0 || u > 1.0 {
		t.Fatalf("utilization = %v", u)
	}
	if m.Core(99) != nil {
		t.Fatal("unknown flow should have no core")
	}
}

// Flow records its core in a pointer; the narrowed int32 fields keep it
// in the 384-byte allocation size class so thousand-flow runs do not pay
// for the next class up.
func TestFlowFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(iosys.Flow{}); n > 384 {
		t.Fatalf("unsafe.Sizeof(Flow{}) = %d, want <= 384", n)
	}
}

// Core keeps its poll buffer in the in-flight batch field rather than a
// field of its own, holding it in the 160-byte size class (one core per
// CPU-involved flow on Cores == 0 machines).
func TestCoreFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(iosys.Core{}); n > 160 {
		t.Fatalf("unsafe.Sizeof(Core{}) = %d, want <= 160", n)
	}
}

// Idle cores must back off their polling instead of spinning at the base
// interval (the event-budget guard for thousand-flow runs).
func TestIdleCoreBackoff(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
	spec := kvSpec(1, 256)
	spec.InitialRate = 1 // effectively idle (clamped to the CC floor)
	m.AddFlow(spec)
	m.PauseFlow(1)
	m.Run(1 * sim.Millisecond)
	c := m.Core(1)
	// At the 50ns base interval an idle core would poll 20,000 times per
	// ms; back-off must cut that by more than an order of magnitude.
	if c.EmptyPolls > 2000 {
		t.Fatalf("idle core polled %d times in 1ms; back-off not engaged", c.EmptyPolls)
	}
}

// Burst shaping gates the generator: a 50% duty cycle emits roughly half
// the packets of a continuous flow at the same rate.
func TestBurstShaping(t *testing.T) {
	run := func(on, off sim.Time) uint64 {
		m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
		spec := kvSpec(1, 512)
		spec.InitialRate = 2e9
		spec.FixedRate = true
		spec.BurstOn, spec.BurstOff = on, off
		f := m.AddFlow(spec)
		m.Run(10 * sim.Millisecond)
		return f.Generated
	}
	continuous := run(0, 0)
	half := run(250*sim.Microsecond, 250*sim.Microsecond)
	ratio := float64(half) / float64(continuous)
	t.Logf("continuous=%d half-duty=%d ratio=%.2f", continuous, half, ratio)
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("half duty cycle should emit ~50%%, got %.2f", ratio)
	}
}

// PauseFlow must be idempotent and ResumeFlow must not resurrect a
// removed flow.
func TestPauseResumeEdgeCases(t *testing.T) {
	m := iosys.NewMachine(iosys.DefaultConfig(), baseline.NewLegacy())
	f := m.AddFlow(kvSpec(1, 256))
	m.PauseFlow(1)
	m.PauseFlow(1) // idempotent
	m.ResumeFlow(1)
	m.ResumeFlow(1) // idempotent: no double generator
	m.Run(1 * sim.Millisecond)
	gen := f.Generated
	if gen == 0 {
		t.Fatal("resumed flow generated nothing")
	}
	m.RemoveFlow(1)
	m.ResumeFlow(1) // must not restart a removed flow
	m.Run(1 * sim.Millisecond)
	if f.Generated != gen {
		t.Fatal("removed flow resurrected")
	}
	m.PauseFlow(99) // unknown id: no-op
	m.ResumeFlow(99)
}

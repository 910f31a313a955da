package transport

import (
	"math"
	"testing"

	"ceio/internal/sim"
)

func testCfg() Config {
	c := DefaultConfig()
	c.RTT = 1000
	return c
}

func TestRateBounds(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg()
	f := New(eng, cfg, 1) // below floor
	if f.Rate() != cfg.MinRate {
		t.Fatalf("rate = %v, want floor %v", f.Rate(), cfg.MinRate)
	}
	g := New(eng, cfg, 1e18) // above ceiling
	if g.Rate() != cfg.MaxRate {
		t.Fatalf("rate = %v, want ceiling %v", g.Rate(), cfg.MaxRate)
	}
}

func TestAdditiveIncreaseWhenClean(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg()
	f := New(eng, cfg, 1e9)
	// Clean acks over 5 RTTs.
	for i := 0; i < 50; i++ {
		f.OnAck(false)
	}
	eng.RunUntil(5 * cfg.RTT)
	// Five ticks: the first sees the 50 clean acks (one additive
	// increase), the other four see none (four idle probes of AI/4).
	want := 1e9 + cfg.AdditiveIncrease
	for i := 0; i < 4; i++ {
		want += cfg.AdditiveIncrease / 4
	}
	if f.Rate() != want {
		t.Fatalf("rate = %v, want %v", f.Rate(), want)
	}
}

// TestLateControllerStartsOneRTTAfterCreation checks the control loop's
// phase: a controller created mid-run keeps its initial rate at its
// creation instant and through the next RTT, and first adjusts one RTT
// after creation.
func TestLateControllerStartsOneRTTAfterCreation(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg()
	eng.RunUntil(sim.Millisecond)
	f := New(eng, cfg, 1e9)
	eng.RunUntil(eng.Now())
	if f.Rate() != 1e9 {
		t.Fatalf("rate changed at creation: %v", f.Rate())
	}
	eng.RunUntil(sim.Millisecond + cfg.RTT - 1)
	if f.Rate() != 1e9 {
		t.Fatalf("rate changed before one RTT elapsed: %v", f.Rate())
	}
	eng.RunUntil(sim.Millisecond + cfg.RTT)
	if want := 1e9 + cfg.AdditiveIncrease/4; f.Rate() != want {
		t.Fatalf("first tick at creation+RTT: rate = %v, want %v", f.Rate(), want)
	}
}

func TestMultiplicativeDecreaseOnMarks(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg()
	f := New(eng, cfg, 10e9)
	done := eng.Every(0, 100, func() { f.OnAck(true) }) // every packet marked
	eng.RunUntil(20 * cfg.RTT)
	done()
	// Fully marked traffic drives alpha -> 1 and rate toward the floor.
	if f.Alpha() < 0.5 {
		t.Fatalf("alpha = %v, want high", f.Alpha())
	}
	if f.Rate() >= 10e9 {
		t.Fatalf("rate did not decrease: %v", f.Rate())
	}
	if f.Reductions == 0 {
		t.Fatal("no reductions recorded")
	}
}

func TestAlphaConverges(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg()
	f := New(eng, cfg, 10e9)
	// 25% marking probability, deterministic pattern.
	n := 0
	done := eng.Every(0, 50, func() {
		f.OnAck(n%4 == 0)
		n++
	})
	eng.RunUntil(200 * cfg.RTT)
	done()
	if a := f.Alpha(); a < 0.15 || a > 0.35 {
		t.Fatalf("alpha = %v, want ~0.25", a)
	}
	if mr := f.MarkRate(); mr < 0.2 || mr > 0.3 {
		t.Fatalf("mark rate = %v", mr)
	}
}

func TestLossBackoffImmediate(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg()
	f := New(eng, cfg, 8e9)
	f.OnLoss()
	if f.Rate() != 4e9 {
		t.Fatalf("rate after loss = %v, want 4e9", f.Rate())
	}
	if f.LossEvents != 1 {
		t.Fatal("loss not counted")
	}
}

func TestForceReduce(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg()
	f := New(eng, cfg, 8e9)
	before := f.Rate()
	f.ForceReduce()
	if f.Rate() >= before {
		t.Fatalf("ForceReduce did not reduce: %v", f.Rate())
	}
	if f.ForcedTriggers != 1 {
		t.Fatal("trigger not counted")
	}
}

func TestIdleProbing(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg()
	f := New(eng, cfg, 1e9)
	eng.RunUntil(10 * cfg.RTT) // no acks at all
	if f.Rate() <= 1e9 {
		t.Fatalf("idle flow should probe upward, rate = %v", f.Rate())
	}
}

func TestStopHaltsLoop(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg()
	f := New(eng, cfg, 1e9)
	f.Stop()
	eng.RunUntil(100 * cfg.RTT)
	if f.Rate() != 1e9 {
		t.Fatalf("stopped controller changed rate: %v", f.Rate())
	}
}

func TestRecoveryAfterCongestion(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg()
	f := New(eng, cfg, 10e9)
	// Congested phase.
	stop := eng.Every(0, 100, func() { f.OnAck(true) })
	eng.RunUntil(10 * cfg.RTT)
	stop()
	low := f.Rate()
	// Clean phase: rate should climb again.
	stop2 := eng.Every(eng.Now(), 100, func() { f.OnAck(false) })
	eng.RunUntil(eng.Now() + 50*cfg.RTT)
	stop2()
	if f.Rate() <= low {
		t.Fatalf("no recovery: %v <= %v", f.Rate(), low)
	}
}

// TestPinnedControllerSchedulesNothing pins the FixedRate contract: a
// controller whose bounds fix its rate adds no event to the engine, keeps
// its rate bit-for-bit through every feedback path and any number of
// RTTs, and has nothing for Stop to cancel; an unpinned one still runs
// its per-RTT tick.
func TestPinnedControllerSchedulesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg()
	const rate = 3.3e9
	cfg.MinRate, cfg.MaxRate = rate, rate
	before := eng.Pending()
	f := New(eng, cfg, rate)
	if got := eng.Pending(); got != before {
		t.Fatalf("pinned controller scheduled %d events, want none", got-before)
	}
	want := math.Float64bits(f.Rate())
	check := func(step string) {
		t.Helper()
		if got := math.Float64bits(f.Rate()); got != want {
			t.Fatalf("after %s: rate = %v, want %v", step, f.Rate(), rate)
		}
	}
	for i := 0; i < 20; i++ {
		f.OnAck(false)
	}
	check("clean acks")
	for i := 0; i < 20; i++ {
		f.OnAck(true)
	}
	check("marked acks")
	f.OnLoss()
	check("loss")
	f.ForceReduce()
	check("forced reduction")
	eng.RunUntil(50 * cfg.RTT)
	check("50 RTTs")
	if f.LossEvents != 1 || f.ForcedTriggers != 1 || f.TotalAcked != 40 || f.TotalMarked != 20 {
		t.Fatalf("feedback counters: loss=%d forced=%d acked=%d marked=%d, want 1/1/40/20",
			f.LossEvents, f.ForcedTriggers, f.TotalAcked, f.TotalMarked)
	}
	f.Stop()
	f.Stop()
	check("Stop")

	cfg.MaxRate = 2 * rate
	before = eng.Pending()
	g := New(eng, cfg, rate)
	if got := eng.Pending(); got != before+1 {
		t.Fatalf("unpinned controller scheduled %d events, want its tick", got-before)
	}
	g.Stop()
}

package workload

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ceio/internal/iosys"
	"ceio/internal/sim"
)

func fastScenario() ScenarioConfig {
	return ScenarioConfig{
		Epoch:  4 * sim.Millisecond,
		Epochs: 3,
		Warmup: 2 * sim.Millisecond,
		Sample: 250 * sim.Microsecond,
	}
}

func TestNewDatapathAllMethods(t *testing.T) {
	for _, r := range registry {
		if dp := NewDatapath(r.method); dp == nil {
			t.Fatalf("nil datapath for %s", r.method)
		}
		if m, err := ParseMethod(string(r.method)); err != nil || m != r.method {
			t.Fatalf("ParseMethod(%q) = %q, %v", r.method, m, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown method should panic")
		}
	}()
	NewDatapath("nope")
}

// TestParseMethodRejects: names match the registry exactly, and the
// error names the bad input and lists every registered name.
func TestParseMethodRejects(t *testing.T) {
	for _, name := range []string{"bogus", "", "ceio", "CEIO "} {
		_, err := ParseMethod(name)
		if err == nil {
			t.Fatalf("ParseMethod(%q) accepted an unregistered name", name)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) || !strings.Contains(err.Error(), MethodList()) {
			t.Fatalf("ParseMethod(%q) error %q should name the input and list the registry", name, err)
		}
	}
}

// echoMachine is one busy CPU-involved flow on the legacy baseline.
func echoMachine() *iosys.Machine {
	m := iosys.NewMachine(iosys.DefaultConfig(), NewDatapath(MethodBaseline))
	m.AddFlow(Echo(1, 1024))
	return m
}

// TestRateSamplerTickOnSimEnd: the engine runs events scheduled exactly
// at the end time, so a run of k intervals yields k rate points with the
// last one landing exactly on the sim end, and the per-interval packet
// rates integrate back to the machine's packet counter.
func TestRateSamplerTickOnSimEnd(t *testing.T) {
	m := echoMachine()
	r := sampleRates(m, sim.Millisecond)
	end := 5 * sim.Millisecond
	m.Run(end)
	s := r.series()
	if n := len(s.InvolvedMpps); n != 5 || len(s.Ticks) != 5 || len(s.TotalGbps) != 5 || len(s.MissRate) != 5 {
		t.Fatalf("recorded %d samples over 5 intervals, want 5 of each series", n)
	}
	if last := s.Ticks[4]; last != end {
		t.Fatalf("last sample at %d, want exactly sim end %d", last, end)
	}
	var pkts float64
	for k, v := range s.InvolvedMpps {
		if v <= 0 {
			t.Fatalf("sample at %d has non-positive rate %f for a busy flow", s.Ticks[k], v)
		}
		pkts += v * 1e6 * sim.Millisecond.Seconds()
	}
	if want := float64(m.InvolvedMeter.Packets); math.Abs(pkts-want) > 1e-6*want {
		t.Fatalf("rates integrate to %.3f packets, machine counted %.0f", pkts, want)
	}
}

// TestRateSamplerRebaselinesAfterReset: a ResetWindow between ticks
// rewinds the machine counters; the interval spanning it must be
// skipped instead of recording a wrapped (enormous) delta.
func TestRateSamplerRebaselinesAfterReset(t *testing.T) {
	m := echoMachine()
	r := sampleRates(m, sim.Millisecond)
	m.Eng.At(2500*sim.Microsecond, func() { m.ResetWindow() })
	m.Run(5 * sim.Millisecond)
	s := r.series()
	// The tick at 3ms lands after the reset and is skipped; four samples
	// remain, all with sane rates.
	if n := len(s.InvolvedMpps); n != 4 {
		t.Fatalf("recorded %d samples, want 4 (reset swallows one tick)", n)
	}
	for k, v := range s.InvolvedMpps {
		if s.Ticks[k] == 3*sim.Millisecond || v < 0 || v > 1000 {
			t.Fatalf("sample at %d has rate %f (wrapped delta?)", s.Ticks[k], v)
		}
	}
}

// TestRateSamplerStopHaltsTicks: Stop cancels future ticks mid-run.
func TestRateSamplerStopHaltsTicks(t *testing.T) {
	m := echoMachine()
	r := sampleRates(m, sim.Millisecond)
	m.Eng.At(2500*sim.Microsecond, r.Stop)
	m.Run(5 * sim.Millisecond)
	if n := len(r.series().InvolvedMpps); n != 2 {
		t.Fatalf("recorded %d samples after Stop at 2.5ms, want 2", n)
	}
}

// TestTimelineSamplerReadOnly: a second sampler at the scenario's own
// interval records the same series and leaves the result unchanged.
func TestTimelineSamplerReadOnly(t *testing.T) {
	sc := fastScenario()
	plain := RunNetworkBurst(MethodShRing, iosys.DefaultConfig(), sc, 0)
	sampled := RunNetworkBurst(MethodShRing, iosys.DefaultConfig(), sc, sc.Sample)
	if len(plain.Timeline.InvolvedMpps) != 0 {
		t.Fatal("timeline recorded without a timeline interval")
	}
	if !reflect.DeepEqual(plain.Series, sampled.Series) || !reflect.DeepEqual(sampled.Timeline, sampled.Series) {
		t.Fatal("timeline sampler perturbed the run or disagrees with the scenario sampler")
	}
	if plain.InvolvedMpps != sampled.InvolvedMpps || plain.WorstMpps != sampled.WorstMpps || plain.MissRate != sampled.MissRate {
		t.Fatalf("summary changed: %+v vs %+v", plain, sampled)
	}
}

func TestFlowSpecDefaults(t *testing.T) {
	if s := ERPCKV(1, 0, DPDK); s.PktSize != 144 || s.Kind != iosys.CPUInvolved || !s.Cost.ZeroCopy {
		t.Fatalf("ERPCKV defaults: %+v", s)
	}
	dpdk, rdma := ERPCKV(1, 144, DPDK), ERPCKV(1, 144, RDMA)
	if rdma.Cost.PerPacket <= dpdk.Cost.PerPacket {
		t.Fatal("RDMA backend should cost more per packet")
	}
	if s := LineFS(2, 0, 0); s.Kind != iosys.CPUBypass || s.MsgPkts != 4096 || s.PktSize != 1024 {
		t.Fatalf("LineFS defaults: %+v", s)
	}
	if s := VxLAN(3); s.PktSize != 64 {
		t.Fatalf("VxLAN: %+v", s)
	}
	if s := LineFSCopy(4, 1024); s.Cost.ZeroCopy || s.Cost.AppBufMissRate != 0.10 {
		t.Fatalf("LineFSCopy: %+v", s)
	}
	if DPDK.String() != "DPDK" || RDMA.String() != "RDMA" {
		t.Fatal("transport strings")
	}
}

func TestDynamicDistributionRuns(t *testing.T) {
	res := RunDynamicDistribution(MethodCEIO, iosys.DefaultConfig(), fastScenario(), 0)
	if res.InvolvedMpps <= 0 {
		t.Fatalf("no involved throughput: %+v", res)
	}
	if res.MissRate > 0.1 {
		t.Errorf("CEIO dynamic miss rate = %.2f, want low", res.MissRate)
	}
	if len(res.Series.InvolvedMpps) == 0 {
		t.Fatal("no samples")
	}
}

func TestNetworkBurstRuns(t *testing.T) {
	res := RunNetworkBurst(MethodBaseline, iosys.DefaultConfig(), fastScenario(), 0)
	if res.InvolvedMpps <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.WorstMpps > res.InvolvedMpps {
		t.Fatal("worst interval cannot exceed mean")
	}
}

func TestExpectedMppsScalesLinearly(t *testing.T) {
	cfg := iosys.DefaultConfig()
	one := ExpectedMpps(cfg, 1)
	eight := ExpectedMpps(cfg, 8)
	if one <= 0 {
		t.Fatal("expected throughput must be positive")
	}
	if eight != one*8 {
		t.Fatalf("expected linear scaling: %v vs %v", eight, one*8)
	}
}

// CEIO should degrade less than ShRing when bypass flows join (the
// Fig. 4a failure mode: bypass flows consuming the shared fixed buffer).
func TestDynamicDistributionCEIOVsShRing(t *testing.T) {
	sc := fastScenario()
	cfg := iosys.DefaultConfig()
	ceio := RunDynamicDistribution(MethodCEIO, cfg, sc, 0)
	shr := RunDynamicDistribution(MethodShRing, cfg, sc, 0)
	t.Logf("ceio: mean=%.2f worst=%.2f miss=%.3f", ceio.InvolvedMpps, ceio.WorstMpps, ceio.MissRate)
	t.Logf("shring: mean=%.2f worst=%.2f miss=%.3f", shr.InvolvedMpps, shr.WorstMpps, shr.MissRate)
	if ceio.InvolvedMpps <= shr.InvolvedMpps {
		t.Errorf("CEIO %.2f should beat ShRing %.2f under dynamic flows", ceio.InvolvedMpps, shr.InvolvedMpps)
	}
}

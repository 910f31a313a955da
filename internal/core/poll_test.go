package core

import (
	"testing"

	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/sim"
)

// Polling a warmed CPU-involved flow whose SW ring holds unready
// slow-path entries must not allocate: the pending-read scan appends
// into the flow's reused scratch, and the batch appends into the
// caller-owned buffer (the polling core's, here the test's).
func TestCEIOPollSteadyStateZeroAlloc(t *testing.T) {
	opts := DefaultOptions()
	opts.ForceSlowPath = true
	// Read-ahead above any ring depth here keeps every poll scanning
	// pending entries instead of returning at a spent read budget.
	opts.ReadAhead = 1 << 12
	dp := New(opts)
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	f := m.AddFlow(iosys.FlowSpec{
		ID: 1, Kind: iosys.CPUInvolved, PktSize: 512, MsgPkts: 4,
		Cost: iosys.CostModel{PerPacket: 250 * sim.Nanosecond, ZeroCopy: true},
	})
	st := dp.flows[1]
	// Warm up until an arrival burst sits in the ring, then poll directly
	// with the engine stopped: in-flight reads stay unready, so every
	// poll rescans the same pending entries.
	for now := sim.Millisecond; st.sw.Len() == 0; now += sim.Microsecond {
		if now > 10*sim.Millisecond {
			t.Fatal("slow-path ring never filled")
		}
		m.Run(now)
	}
	buf := make([]*pkt.Packet, 0, m.Cfg.BatchSize)
	buf = dp.Poll(f, buf, m.Cfg.BatchSize)
	if n := len(st.sw.AppendPendingSlow(nil, st.sw.Cap())); n == 0 {
		t.Fatalf("no pending slow entries to scan (%s)", dp.DebugFlow(1))
	}
	allocs := testing.AllocsPerRun(100, func() { buf = dp.Poll(f, buf[:0], m.Cfg.BatchSize) })
	if allocs != 0 {
		t.Fatalf("CEIO.Poll allocates %.1f times per call in steady state", allocs)
	}
}

package invariants_test

import (
	"runtime"
	"strings"
	"testing"
	"weak"

	"ceio/internal/core"
	"ceio/internal/invariants"
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/sim"
)

func kvSpec(id, size int) iosys.FlowSpec {
	return iosys.FlowSpec{
		ID:      id,
		Kind:    iosys.CPUInvolved,
		PktSize: size,
		MsgPkts: 4,
		Cost:    iosys.CostModel{PerPacket: 250 * sim.Nanosecond, ZeroCopy: true},
	}
}

// A clean fault-free run must audit clean: the auditor is only useful if
// it stays silent when nothing is wrong.
func TestAuditorCleanRun(t *testing.T) {
	dp := core.New(core.DefaultOptions())
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	a := invariants.Attach(m, 50*sim.Microsecond)
	for i := 1; i <= 4; i++ {
		m.AddFlow(kvSpec(i, 512))
	}
	m.Run(3 * sim.Millisecond)
	m.RemoveFlow(2)
	m.Run(5 * sim.Millisecond)
	a.Final()
	if a.Checks == 0 {
		t.Fatal("auditor never swept")
	}
	if err := a.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
}

// Corrupting the machine's elastic-byte counter behind the datapath's
// back must be caught by the next sweep.
func TestAuditorCatchesElasticDrift(t *testing.T) {
	dp := core.New(core.DefaultOptions())
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	a := invariants.Attach(m, 50*sim.Microsecond)
	m.AddFlow(kvSpec(1, 512))
	m.Run(1 * sim.Millisecond)
	m.NICMemUsed += iosys.IOBufSize // simulated accounting bug
	m.Run(2 * sim.Millisecond)
	if a.Count() == 0 {
		t.Fatal("injected elastic drift went unnoticed")
	}
	found := false
	for _, v := range a.Violations() {
		if v.Rule == "elastic-bytes" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an elastic-bytes violation, got: %v", a.Err())
	}
	m.NICMemUsed -= iosys.IOBufSize // undo so Final's bounds check is about drift only
}

// A forged out-of-order delivery must produce a delivery-order violation,
// and the report must be a structured record, not a panic.
func TestAuditorCatchesOrderViolation(t *testing.T) {
	dp := core.New(core.DefaultOptions())
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	a := invariants.Attach(m, 50*sim.Microsecond)
	f := m.AddFlow(kvSpec(1, 512))
	m.Run(1 * sim.Millisecond)
	// Replay an already-delivered sequence number through the observer
	// chain by invoking the hook the way Machine.Deliver does.
	m.OnDeliver(f, &pkt.Packet{FlowID: 1, Seq: 0})
	if a.Count() == 0 {
		t.Fatal("replayed sequence number went unnoticed")
	}
	if err := a.Err(); err == nil || !strings.Contains(err.Error(), "delivery-order") {
		t.Fatalf("want delivery-order violation, got %v", err)
	}
}

// Violation retention is capped but counting is not.
func TestAuditorRetentionCap(t *testing.T) {
	dp := core.New(core.DefaultOptions())
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	a := invariants.Attach(m, 10*sim.Microsecond)
	m.AddFlow(kvSpec(1, 512))
	m.Run(500 * sim.Microsecond)
	m.NICMemUsed = -1 // every subsequent sweep violates the bounds check
	m.Run(5 * sim.Millisecond)
	if a.Count() <= 64 {
		t.Fatalf("want >64 total violations, got %d", a.Count())
	}
	if got := len(a.Violations()); got > 64 {
		t.Fatalf("retention cap breached: %d records", got)
	}
}

// The delivery-order expectation of a removed flow is still enforced
// after a sweep retires it: a batch a core had in flight at teardown can
// deliver late, and a replayed sequence number then must not pass.
func TestAuditorChecksRetiredFlow(t *testing.T) {
	dp := core.New(core.DefaultOptions())
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	a := invariants.Attach(m, 50*sim.Microsecond)
	f := m.AddFlow(kvSpec(1, 512))
	m.Run(1 * sim.Millisecond)
	if f.DeliveredCount() == 0 {
		t.Fatal("flow delivered nothing")
	}
	m.RemoveFlow(1)
	m.Run(2 * sim.Millisecond) // several sweeps past the removal
	if a.Count() != 0 {
		t.Fatalf("clean teardown reported violations: %v", a.Err())
	}
	m.OnDeliver(f, &pkt.Packet{FlowID: 1, Seq: 0})
	if err := a.Err(); err == nil || !strings.Contains(err.Error(), "delivery-order") {
		t.Fatalf("want delivery-order violation for the retired flow, got %v", err)
	}
	// A new flow reusing the ID starts a fresh expectation.
	before := a.Count()
	g := m.AddFlow(kvSpec(1, 512))
	m.OnDeliver(g, &pkt.Packet{FlowID: 1, Seq: 0})
	if a.Count() != before {
		t.Fatalf("reused flow ID inherited the removed flow's expectation: %v", a.Err())
	}
}

// Torn-down flows must become unreachable: the auditor's delivery-order
// bookkeeping (and anything else) must not pin a removed flow, its
// datapath state, or its SW ring. 512 flows each deliver, are removed,
// and must all be collected.
func TestAuditorReleasesRemovedFlows(t *testing.T) {
	dp := core.New(core.DefaultOptions())
	m := iosys.NewMachine(iosys.DefaultConfig(), dp)
	a := invariants.Attach(m, 50*sim.Microsecond)
	const rounds, perRound = 8, 64
	var gone []weak.Pointer[iosys.Flow]
	now := sim.Time(0)
	for r := 0; r < rounds; r++ {
		flows := make([]*iosys.Flow, perRound)
		for i := range flows {
			flows[i] = m.AddFlow(kvSpec(r*perRound+i+1, 512))
		}
		now += 300 * sim.Microsecond
		m.Run(now)
		for _, f := range flows {
			if f.DeliveredCount() == 0 {
				t.Fatalf("flow %d delivered nothing before removal", f.ID)
			}
			gone = append(gone, weak.Make(f))
			m.RemoveFlow(f.ID)
		}
	}
	// Let in-flight completions and several sweeps run past the last
	// removal, then collect.
	m.Run(now + sim.Millisecond)
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	live := 0
	for _, w := range gone {
		if w.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Fatalf("%d of %d removed flows still reachable after GC", live, len(gone))
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(a)
}

// A churned population of mostly paused flows keeps cores disarmed
// while flow setup takes credits from existing accounts and the credit
// scan and round-robin timer grant some back to slow-path flows that
// stopped ringing. Every sweep must find each flow on a disarmed core
// quiescent or paused: a refill that forgot to ring shows up as a
// doorbell-armed violation.
func TestAuditorDoorbellsUnderChurn(t *testing.T) {
	for _, cores := range []int{0, 4} {
		cfg := iosys.DefaultConfig()
		cfg.Cores = cores
		cfg.LLCBytes = 512 << 10
		m := iosys.NewMachine(cfg, core.New(core.DefaultOptions()))
		a := invariants.Attach(m, 5*sim.Microsecond)
		const population, active, swap = 256, 12, 4
		next := 1
		add := func() int {
			id := next
			next++
			s := kvSpec(id, 512)
			s.InitialRate = cfg.LinkBandwidth / active
			s.FixedRate = true
			m.AddFlow(s)
			m.PauseFlow(id)
			return id
		}
		ids := make([]int, population)
		for i := range ids {
			ids[i] = add()
		}
		round := 0
		m.Eng.Every(0, 40*sim.Microsecond, func() {
			for k := 0; k < active; k++ {
				m.PauseFlow(ids[(round*active+k)%population])
			}
			for k := 0; k < swap; k++ {
				i := (round*7 + k*31) % population
				m.RemoveFlow(ids[i])
				ids[i] = add()
			}
			round++
			for k := 0; k < active; k++ {
				m.ResumeFlow(ids[(round*active+k)%population])
			}
		})
		m.Run(3 * sim.Millisecond)
		a.Final()
		if a.Checks == 0 {
			t.Fatalf("cores=%d: auditor never swept", cores)
		}
		if err := a.Err(); err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
	}
}

package core

import (
	"slices"
	"testing"

	"ceio/internal/iosys"
	"ceio/internal/sim"
)

func memberKV(id int) iosys.FlowSpec {
	return iosys.FlowSpec{
		ID: id, Kind: iosys.CPUInvolved, PktSize: 256, MsgPkts: 1,
		Cost: iosys.CostModel{PerPacket: 150 * sim.Nanosecond, ZeroCopy: true},
	}
}

// scanInUse is the full-scan definition the member lists replace: the
// in-use credits of every live flow on rx queue q, read through the
// controller.
func scanInUse(c *CEIO, q int) int {
	held := 0
	for _, st := range c.flows {
		if st.f.QueueIndex() == q {
			held += acctOf(c, st).InUse
		}
	}
	return held
}

// acctOf returns the controller's live account paired with st (the one
// at st's position in the flow list), or nil when st is not listed.
func acctOf(c *CEIO, st *flowState) *FlowCredits {
	if i := slices.Index(c.flows, st); i >= 0 && i < len(c.ctrl.flows) {
		return c.ctrl.flows[i]
	}
	return nil
}

// checkCoreMembers requires every per-core holding to equal a scan of
// the live flows, and the member-list audit to pass. It returns the
// machine-wide holding.
func checkCoreMembers(t *testing.T, c *CEIO, when string) int {
	t.Helper()
	held := 0
	for q := range c.coreShares {
		got, want := c.coreInUse(q), scanInUse(c, q)
		if got != want {
			t.Fatalf("%s: coreInUse(%d) = %d, scan of c.flows = %d", when, q, got, want)
		}
		held += got
	}
	if err := c.AuditCoreShares(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	return held
}

// TestRemovedFlowReadsZeroAfterReAdd tears a flow down with packets in
// flight on a 4-core machine and re-adds the same ID: the retired state's
// cached account must read zero credits, the new state must hold the
// controller's fresh account, and the per-core holdings must equal a
// scan of the live flows throughout.
func TestRemovedFlowReadsZeroAfterReAdd(t *testing.T) {
	cfg := iosys.DefaultConfig()
	cfg.Cores = 4
	c := New(DefaultOptions())
	m := iosys.NewMachine(cfg, c)
	for id := 1; id <= 8; id++ {
		m.AddFlow(memberKV(id))
	}
	// Run advances to an absolute time, so each step names its own end.
	peak, now := 0, sim.Time(0)
	for i := 0; i < 40; i++ {
		now += 50 * sim.Microsecond
		m.Run(now)
		peak = max(peak, checkCoreMembers(t, c, "warm-up"))
	}
	if peak == 0 {
		t.Fatal("no fast-path credits ever in flight: the holdings check compared zeros")
	}

	old := m.Flows[3].DP.(*flowState)
	if old.cred != acctOf(c, old) {
		t.Fatal("flow 3 does not cache its controller account")
	}
	m.RemoveFlow(3)
	if old.cred.Available != 0 || old.cred.InUse != 0 {
		t.Fatalf("retired account reads avail=%d inuse=%d, want 0/0", old.cred.Available, old.cred.InUse)
	}
	checkCoreMembers(t, c, "after removal")

	m.AddFlow(memberKV(3))
	st := m.Flows[3].DP.(*flowState)
	if st == old || st.cred == old.cred || st.cred != acctOf(c, st) || !old.cred.retired {
		t.Fatal("re-added flow 3 does not hold the controller's fresh account")
	}
	if st.cred.Available == 0 {
		t.Fatal("re-added flow 3 was granted no credits")
	}
	if old.cred.Available != 0 || old.cred.InUse != 0 {
		t.Fatalf("retired account changed after re-add: avail=%d inuse=%d", old.cred.Available, old.cred.InUse)
	}
	for i := 0; i < 40; i++ {
		now += 50 * sim.Microsecond
		m.Run(now)
		checkCoreMembers(t, c, "after re-add")
	}
	if old.cred.Available != 0 || old.cred.InUse != 0 {
		t.Fatalf("retired account changed while its stragglers drained: avail=%d inuse=%d",
			old.cred.Available, old.cred.InUse)
	}
}

// TestAuditCreditsPairsFlowsWithAccounts corrupts the flow list against
// the controller's account list three ways — reordered, short of a flow,
// holding a retired account — and requires AuditCredits to fail on each.
func TestAuditCreditsPairsFlowsWithAccounts(t *testing.T) {
	c := New(DefaultOptions())
	m := iosys.NewMachine(iosys.DefaultConfig(), c)
	for id := 1; id <= 3; id++ {
		m.AddFlow(memberKV(id))
	}
	m.Run(100 * sim.Microsecond)
	if err := c.AuditCredits(); err != nil {
		t.Fatalf("clean machine: %v", err)
	}
	flows := slices.Clone(c.flows)
	corrupt := map[string]func(){
		"reordered":       func() { c.flows[0], c.flows[1] = c.flows[1], c.flows[0] },
		"missing a flow":  func() { c.flows = c.flows[:2] },
		"retired account": func() { c.flows[2].cred.retired = true },
	}
	for name, f := range corrupt {
		f()
		if err := c.AuditCredits(); err == nil {
			t.Errorf("%s: AuditCredits passed", name)
		}
		c.flows = slices.Clone(flows)
		c.flows[2].cred.retired = false
	}
	if err := c.AuditCredits(); err != nil {
		t.Fatalf("restored machine: %v", err)
	}
}

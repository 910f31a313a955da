package core

import (
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
	for id, st := range c.flows {
		if st.f.QueueIndex() == q {
			held += c.ctrl.Flow(id).InUse
		}
	}
	return held
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
	peak := 0
	for i := 0; i < 40; i++ {
		m.Run(50 * sim.Microsecond)
		peak = max(peak, checkCoreMembers(t, c, "warm-up"))
	}
	if peak == 0 {
		t.Fatal("no fast-path credits ever in flight: the holdings check compared zeros")
	}

	old := c.flows[3]
	if old.cred != c.ctrl.Flow(3) {
		t.Fatal("flow 3 does not cache its controller account")
	}
	m.RemoveFlow(3)
	if old.cred.Available != 0 || old.cred.InUse != 0 {
		t.Fatalf("retired account reads avail=%d inuse=%d, want 0/0", old.cred.Available, old.cred.InUse)
	}
	checkCoreMembers(t, c, "after removal")

	m.AddFlow(memberKV(3))
	st := c.flows[3]
	if st == old || st.cred == old.cred || st.cred != c.ctrl.Flow(3) {
		t.Fatal("re-added flow 3 does not hold the controller's fresh account")
	}
	if st.cred.Available == 0 {
		t.Fatal("re-added flow 3 was granted no credits")
	}
	if old.cred.Available != 0 || old.cred.InUse != 0 {
		t.Fatalf("retired account changed after re-add: avail=%d inuse=%d", old.cred.Available, old.cred.InUse)
	}
	for i := 0; i < 40; i++ {
		m.Run(50 * sim.Microsecond)
		checkCoreMembers(t, c, "after re-add")
	}
	if old.cred.Available != 0 || old.cred.InUse != 0 {
		t.Fatalf("retired account changed while its stragglers drained: avail=%d inuse=%d",
			old.cred.Available, old.cred.InUse)
	}
}

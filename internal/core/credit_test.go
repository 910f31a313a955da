package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCreditInitialAllocation(t *testing.T) {
	c := NewCreditController(3000)
	f := c.AddFlows(1)[0]
	if got := f.Available; got != 3000 {
		t.Fatalf("single flow should hold all credits, got %d", got)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditEvenSplit(t *testing.T) {
	c := NewCreditController(3000)
	for _, f := range c.AddFlows(1, 2, 3) {
		if got := f.Available; got != 1000 {
			t.Fatalf("flow %d has %d credits, want 1000", f.ID, got)
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditNewFlowTakesFromExisting(t *testing.T) {
	c := NewCreditController(3000)
	f1 := c.AddFlows(1)[0]
	f2 := c.AddFlows(2)[0]
	// C_flow = 1500; flow 1 had 3000 available, gives 1500.
	if f1.Available != 1500 || f2.Available != 1500 {
		t.Fatalf("split = %d/%d, want 1500/1500", f1.Available, f2.Available)
	}
	if f1.InDebt() {
		t.Fatal("flow 1 should not be in debt")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditDebtWhenCreditsInUse(t *testing.T) {
	c := NewCreditController(100)
	f1 := c.AddFlows(1)[0]
	// Flow 1 spends 90 credits on in-flight packets.
	for i := 0; i < 90; i++ {
		if !c.Consume(f1) {
			t.Fatal("consume failed")
		}
	}
	f2 := c.AddFlows(2)[0]
	// C_flow = 50. Flow 1 only has 10 available: gives 10, owes 40.
	if got := f2.Available; got != 10 {
		t.Fatalf("flow 2 immediate credits = %d, want 10", got)
	}
	if !f1.InDebt() || f1.Owes[f2] != 40 {
		t.Fatalf("flow 1 owes = %v, want {flow 2: 40}", f1.Owes)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Release pays the debt before refilling flow 1.
	c.Release(f1, 30)
	if got := f2.Available; got != 40 {
		t.Fatalf("after partial release, flow 2 has %d, want 40", got)
	}
	if f1.Available != 0 {
		t.Fatalf("flow 1 should still have 0, got %d", f1.Available)
	}
	c.Release(f1, 60)
	if got := f2.Available; got != 50 {
		t.Fatalf("flow 2 final = %d, want 50", got)
	}
	if got := f1.Available; got != 50 {
		t.Fatalf("flow 1 final = %d, want 50", got)
	}
	if f1.InDebt() {
		t.Fatal("debt should be settled")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditConsumeExhaustion(t *testing.T) {
	c := NewCreditController(10)
	f := c.AddFlows(1)[0]
	for i := 0; i < 10; i++ {
		if !c.Consume(f) {
			t.Fatalf("consume %d failed", i)
		}
	}
	if c.Consume(f) {
		t.Fatal("consume beyond credits must fail")
	}
	if c.Rejected != 1 {
		t.Fatalf("rejected = %d", c.Rejected)
	}
	c.Release(f, 4)
	if f.Available != 4 || f.InUse != 6 {
		t.Fatalf("avail=%d inuse=%d", f.Available, f.InUse)
	}
}

// A removed flow's retired account consumes nothing, and the refusal
// counts as a rejection like any other.
func TestCreditConsumeUnknownFlow(t *testing.T) {
	c := NewCreditController(10)
	f := c.AddFlows(42)[0]
	c.RemoveFlow(f)
	if c.Consume(f) {
		t.Fatal("removed flow must not consume")
	}
	if c.Rejected != 1 || c.Consumed != 0 {
		t.Fatalf("rejected=%d consumed=%d, want 1/0", c.Rejected, c.Consumed)
	}
}

func TestCreditReleaseOverflowPanics(t *testing.T) {
	c := NewCreditController(10)
	f := c.AddFlows(1)[0]
	c.Consume(f)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Release(f, 2)
}

func TestCreditRemoveFlowReturnsToPool(t *testing.T) {
	c := NewCreditController(100)
	f1 := c.AddFlows(1, 2)[0]
	c.Consume(f1)
	c.Consume(f1)
	c.RemoveFlow(f1)
	if c.Pool() != 50 { // 48 available + 2 in use reclaimed
		t.Fatalf("pool = %d, want 50", c.Pool())
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// A straggling release from a removed flow is a no-op (its in-use
	// credits were already reclaimed at removal).
	c.Release(f1, 2)
	if c.Pool() != 50 {
		t.Fatalf("pool after late release = %d, want 50", c.Pool())
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// A straggling release on a retired account stays a no-op after its
// flow ID is re-added: the controller, not its caller, keeps the old
// incarnation's late releases off the new account and the ledger.
func TestCreditStragglerReleaseAfterReAdd(t *testing.T) {
	c := NewCreditController(100)
	old := c.AddFlows(1, 2)[0]
	for i := 0; i < 10; i++ {
		c.Consume(old)
	}
	c.RemoveFlow(old)
	fresh := c.AddFlows(1)[0]
	if fresh == old {
		t.Fatal("re-added ID got the retired account back")
	}
	for i := 0; i < 4; i++ {
		c.Consume(fresh)
	}
	avail, pool, released := fresh.Available, c.Pool(), c.Released
	c.Release(old, 10)
	if old.Available != 0 || old.InUse != 0 {
		t.Fatalf("retired account reads avail=%d inuse=%d after a late release", old.Available, old.InUse)
	}
	if fresh.Available != avail || fresh.InUse != 4 || c.Pool() != pool || c.Released != released {
		t.Fatalf("late release reached the ledger: fresh avail=%d inuse=%d pool=%d released=%d, want %d/4/%d/%d",
			fresh.Available, fresh.InUse, c.Pool(), c.Released, avail, pool, released)
	}
	if g := c.Grant(old, 10); g != 0 {
		t.Fatalf("grant to a retired account = %d, want 0", g)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditDebtToRemovedFlowGoesToPool(t *testing.T) {
	c := NewCreditController(100)
	f1 := c.AddFlows(1)[0]
	for i := 0; i < 100; i++ {
		c.Consume(f1)
	}
	f2 := c.AddFlows(2)[0] // flow 1 owes 50 to flow 2
	c.RemoveFlow(f2)
	// The creditor's ID comes back with a fresh account. Flow 1 has
	// nothing available, so it owes the newcomer its 50 too; the old IOU
	// still belongs to the retired account and pays the pool.
	f2b := c.AddFlows(2)[0]
	if f2b.Available != 0 || f1.Owes[f2] != 50 || f1.Owes[f2b] != 50 {
		t.Fatalf("re-add: avail2=%d owes=%v, want 0 and 50 to each flow 2", f2b.Available, f1.Owes)
	}
	// Equal creditor IDs settle the retired account first.
	c.Release(f1, 60)
	if c.Pool() != 50 || f2b.Available != 10 || f1.Available != 0 {
		t.Fatalf("after 60: pool=%d avail2=%d avail1=%d, want 50/10/0", c.Pool(), f2b.Available, f1.Available)
	}
	c.Release(f1, 40)
	if c.Pool() != 50 || f2b.Available != 50 || f1.Available != 0 || f1.InDebt() {
		t.Fatalf("after 100: pool=%d avail2=%d avail1=%d owes=%v, want 50/50/0 and no debt",
			c.Pool(), f2b.Available, f1.Available, f1.Owes)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditRecycleAndGrant(t *testing.T) {
	c := NewCreditController(100)
	accts := c.AddFlows(1, 2)
	f1, f2 := accts[0], accts[1]
	n := c.Recycle(f2)
	if n != 50 || c.Pool() != 50 {
		t.Fatalf("recycled %d, pool %d", n, c.Pool())
	}
	g := c.Grant(f1, 30)
	if g != 30 || f1.Available != 80 {
		t.Fatalf("granted %d, avail %d", g, f1.Available)
	}
	if g := c.Grant(f1, 100); g != 20 {
		t.Fatalf("grant should cap at pool, got %d", g)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCreditFairShare(t *testing.T) {
	c := NewCreditController(3000)
	if c.FairShare() != 3000 {
		t.Fatal("empty controller fair share")
	}
	c.AddFlows(1, 2, 3)
	if c.FairShare() != 1000 {
		t.Fatalf("fair share = %d", c.FairShare())
	}
}

func TestCreditManyFlowsRemainder(t *testing.T) {
	c := NewCreditController(100)
	accts := c.AddFlows(1, 2, 3) // 33 each, 1 left in pool
	sum := c.Pool()
	for _, f := range accts {
		sum += f.Available
	}
	if sum != 100 || c.Pool() != 1 {
		t.Fatalf("sum = %d, pool = %d", sum, c.Pool())
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// Property: under random interleavings of adds (reusing the IDs of
// removed flows), removes, consumes, releases, recycles and grants,
// credit conservation always holds.
func TestCreditConservationProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Arg  uint8
	}
	f := func(ops []op) bool {
		c := NewCreditController(256)
		var live []*FlowCredits
		inUse := map[*FlowCredits]int{}
		pick := func(a uint8) (*FlowCredits, bool) {
			if len(live) == 0 {
				return nil, false
			}
			return live[int(a)%len(live)], true
		}
		for _, o := range ops {
			switch o.Kind % 7 {
			case 0: // add, under an ID no live flow holds
				id := 1 + int(o.Arg)%24
				if !slices.ContainsFunc(live, func(f *FlowCredits) bool { return f.ID == id }) {
					live = append(live, c.AddFlows(id)[0])
				}
			case 1: // remove
				if f, ok := pick(o.Arg); ok {
					c.RemoveFlow(f)
					live = slices.DeleteFunc(live, func(g *FlowCredits) bool { return g == f })
					delete(inUse, f)
				}
			case 2: // consume
				if f, ok := pick(o.Arg); ok {
					if c.Consume(f) {
						inUse[f]++
					}
				}
			case 3: // release
				if f, ok := pick(o.Arg); ok && inUse[f] > 0 {
					n := 1 + int(o.Arg)%inUse[f]
					c.Release(f, n)
					inUse[f] -= n
				}
			case 4: // recycle
				if f, ok := pick(o.Arg); ok {
					c.Recycle(f)
				}
			case 5: // grant
				if f, ok := pick(o.Arg); ok {
					c.Grant(f, int(o.Arg))
				}
			case 6: // reclaim (reconciliation path)
				if f, ok := pick(o.Arg); ok {
					inUse[f] -= c.ReclaimInUse(f, int(o.Arg)%8)
				}
			}
			if err := c.CheckInvariant(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
			if err := c.CheckConservation(); err != nil {
				t.Logf("conservation: %v", err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// ReclaimInUse recovers leaked in-use credits (lost release messages),
// settles debts first like a normal release, and never over-reclaims.
func TestCreditReclaimInUse(t *testing.T) {
	c := NewCreditController(100)
	f := c.AddFlows(1)[0]
	for i := 0; i < 60; i++ {
		c.Consume(f)
	}
	// Host released 20, but the release messages were lost: InUse stays 60.
	if got := c.ReclaimInUse(f, 20); got != 20 {
		t.Fatalf("reclaimed %d, want 20", got)
	}
	if f.Available != 60 || f.InUse != 40 {
		t.Fatalf("avail=%d inuse=%d, want 60/40", f.Available, f.InUse)
	}
	if c.Reclaimed != 20 {
		t.Fatalf("Reclaimed=%d, want 20", c.Reclaimed)
	}
	// Reclaiming more than InUse clamps.
	if got := c.ReclaimInUse(f, 100); got != 40 {
		t.Fatalf("clamped reclaim = %d, want 40", got)
	}
	if got := c.ReclaimInUse(f, 1); got != 0 {
		t.Fatalf("reclaim with nothing in use = %d, want 0", got)
	}
	gone := c.AddFlows(42)[0]
	c.Consume(gone)
	c.RemoveFlow(gone)
	if got := c.ReclaimInUse(gone, 5); got != 0 {
		t.Fatalf("reclaim on removed flow = %d, want 0", got)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Reclaimed credits settle IOUs before refilling the flow, exactly like
// an application release would — a starved creditor flow is unblocked by
// reconciliation too.
func TestCreditReclaimSettlesDebts(t *testing.T) {
	c := NewCreditController(100)
	f1 := c.AddFlows(1)[0]
	for i := 0; i < 100; i++ {
		c.Consume(f1)
	}
	f2 := c.AddFlows(2)[0] // flow 2 arrives starved: flow 1 owes it 50
	if f2.Available != 0 || f1.Owes[f2] != 50 {
		t.Fatalf("setup: avail2=%d owes=%v", f2.Available, f1.Owes)
	}
	if got := c.ReclaimInUse(f1, 30); got != 30 {
		t.Fatalf("reclaimed %d, want 30", got)
	}
	if f2.Available != 30 {
		t.Fatalf("creditor got %d, want 30 (debt paid first)", f2.Available)
	}
	if f1.Available != 0 {
		t.Fatalf("debtor kept %d while still in debt", f1.Available)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// A zero-credit flow (everything in use, releases lost) is starved until
// a reclaim; afterwards it can consume again — the reconciliation path
// out of starvation.
func TestCreditStarvationRecovery(t *testing.T) {
	c := NewCreditController(10)
	f := c.AddFlows(1)[0]
	for i := 0; i < 10; i++ {
		c.Consume(f)
	}
	if c.Consume(f) {
		t.Fatal("starved flow consumed")
	}
	c.ReclaimInUse(f, 10)
	if !c.Consume(f) {
		t.Fatal("reclaim did not unstarve the flow")
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Burst arrival during reconciliation: new flows joining between partial
// reclaims keep the pool and ledger consistent.
func TestCreditBurstArrivalDuringReclaim(t *testing.T) {
	c := NewCreditController(256)
	f1 := c.AddFlows(1, 2)[0]
	for i := 0; i < 100; i++ {
		c.Consume(f1)
	}
	c.ReclaimInUse(f1, 40)
	burst := c.AddFlows(3, 4, 5, 6) // burst joins mid-reconciliation
	c.ReclaimInUse(f1, 60)
	for _, f := range burst {
		c.Release(f, f.InUse) // no-ops; keep the API exercised
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if c.Reclaimed != 100 {
		t.Fatalf("Reclaimed=%d, want 100", c.Reclaimed)
	}
}

// The lifetime ledger holds across removals too: in-use credits of a
// removed flow count as reclaimed, and straggling releases stay no-ops.
func TestCreditConservationLedgerAcrossRemoval(t *testing.T) {
	c := NewCreditController(100)
	f1 := c.AddFlows(1, 2)[0]
	for i := 0; i < 30; i++ {
		c.Consume(f1)
	}
	c.Release(f1, 10)
	c.RemoveFlow(f1) // 20 still in use -> Reclaimed
	c.Release(f1, 20)
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if c.Reclaimed != 20 {
		t.Fatalf("Reclaimed=%d, want 20", c.Reclaimed)
	}
}

// Burst arrival of many flows at once (Fig. 12 regime) stays consistent.
func TestCreditMassArrival(t *testing.T) {
	c := NewCreditController(3072)
	ids := make([]int, 1024)
	for i := range ids {
		ids[i] = i + 1
	}
	accts := c.AddFlows(ids...)
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if accts[0].Available != 3 || accts[1023].Available != 3 {
		t.Fatalf("per-flow = %d/%d, want 3", accts[0].Available, accts[1023].Available)
	}
}

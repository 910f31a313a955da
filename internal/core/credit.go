// Package core implements CEIO, the paper's primary contribution: a
// NIC-resident I/O manager combining proactive, credit-based flow control
// (§4.1) with elastic on-NIC buffering (§4.2), exposed to hosts through
// Recv/AsyncRecv-style driver APIs (§5).
package core

import (
	"cmp"
	"fmt"
	"slices"

	"ceio/internal/iosys"
)

// FlowCredits is the controller's per-flow account: the handle AddFlows
// returns and every other operation takes. There is no flow-ID index, so
// an ID re-added after RemoveFlow gets a fresh, unrelated account.
type FlowCredits struct {
	ID int
	// Available credits may be consumed by arriving packets.
	Available int
	// InUse credits are held by in-flight fast-path packets and return
	// via lazy release when the host finishes a message batch.
	InUse int
	// Owes records IOUs created by Algorithm 1 when this flow lacked
	// sufficient available credits at reallocation time (the paper's set
	// I and o_j^i bookkeeping): creditor account -> credits owed. Debts
	// are settled first out of this flow's released credits, in ascending
	// creditor-ID order; a debt to a retired creditor pays the pool, never
	// a later account that reuses the creditor's ID. Nil until the flow
	// first goes into debt.
	Owes map[*FlowCredits]int
	// retired is set by RemoveFlow: the account is zeroed and out of the
	// controller's list, and Release and Grant on it are no-ops.
	retired bool
	// flow is the machine flow whose core a refill from zero wakes (see
	// credit); nil for an account with no flow, and cleared by RemoveFlow.
	// A retired account can outlive its flow as a key of other accounts'
	// Owes maps, so keeping the pointer would pin the torn-down flow.
	flow *iosys.Flow
}

// InDebt reports whether the flow still owes credits (member of I).
func (f *FlowCredits) InDebt() bool { return len(f.Owes) > 0 }

// CreditController implements the credit management strategy of
// Algorithm 1. The total credit count corresponds to the LLC capacity
// (C_total = Size_LLC / Size_buf, Eq. 1); a packet that cannot obtain a
// credit is diverted to the slow path by the flow controller.
//
// Invariants: pool + Σ_flows (Available + InUse) == total, always, where
// the sum runs over the live accounts (retired ones are zeroed). The live
// accounts are listed in insertion order, which fixes Algorithm 1's
// contribution order, and none of them is retired. IOUs are promises
// against future releases and carry no credits.
type CreditController struct {
	total int
	pool  int
	flows []*FlowCredits // live accounts, in insertion order
	// creditors is settle's reused scratch for a debtor's creditors.
	creditors []*FlowCredits
	// doorbell re-arms the polling core of a flow whose account is
	// refilled from zero (see credit). Whoever binds an account to a flow
	// sets it first (CEIO.Attach).
	doorbell func(*iosys.Flow)

	// Statistics.
	Consumed  uint64
	Rejected  uint64
	Released  uint64
	DebtsPaid uint64
	Reallocs  uint64
	// Reclaimed counts in-use credits recovered by means other than an
	// application release: reconciliation after a lost release message, or
	// flow teardown with packets still in flight. Conservation over the
	// controller's lifetime is Consumed == Released + Reclaimed + ΣInUse
	// (see CheckConservation).
	Reclaimed uint64
}

// NewCreditController creates a controller holding total credits in its
// unassigned pool.
func NewCreditController(total int) *CreditController {
	if total <= 0 {
		panic("core: total credits must be positive")
	}
	return &CreditController{total: total, pool: total}
}

// Total returns C_total.
func (c *CreditController) Total() int { return c.total }

// Pool returns currently unassigned credits.
func (c *CreditController) Pool() int { return c.pool }

// AddFlows runs the credit assignment of Algorithm 1 for m newly arrived
// flows against the n existing ones and returns the new accounts, in
// argument order: each new flow is targeted at C_flow = C_total/(n+m)
// credits, funded first from the unassigned pool and then by equal
// contributions from existing flows. An existing flow whose available
// credits cannot cover its contribution (its credits are InUse by
// in-flight packets) enters the debtor set: it gives what it has and
// records IOUs (o_j^i) settled during future releases — this is what
// prevents starvation of newly arrived flows (lines 8-14 of Algorithm 1).
func (c *CreditController) AddFlows(ids ...int) []*FlowCredits {
	m := len(ids)
	if m == 0 {
		return nil
	}
	// The existing flows are the prefix of the list before the appends.
	n := len(c.flows)
	newFlows := make([]*FlowCredits, m)
	for k, id := range ids {
		newFlows[k] = &FlowCredits{ID: id}
	}
	c.flows = append(c.flows, newFlows...)
	existing := c.flows[:n]
	cflow := c.total / len(c.flows)
	need := make([]int, m)
	totalNeed := 0
	for k := range need {
		need[k] = cflow
		totalNeed += cflow
	}

	// Fund from the pool first.
	fill := func(amount int) int { // distribute amount across unmet needs
		given := 0
		for k := range need {
			if amount == 0 {
				break
			}
			g := min(need[k], amount)
			newFlows[k].Available += g
			need[k] -= g
			amount -= g
			given += g
		}
		return given
	}
	fromPool := min(c.pool, totalNeed)
	c.pool -= fill(fromPool)

	remaining := 0
	for _, v := range need {
		remaining += v
	}
	if remaining == 0 || len(existing) == 0 {
		return newFlows
	}

	// Equal contributions from existing flows (remainder spread over the
	// first flows in insertion order).
	quota := remaining / len(existing)
	extra := remaining % len(existing)
	for idx, e := range existing {
		q := quota
		if idx < extra {
			q++
		}
		if q == 0 {
			continue
		}
		give := min(e.Available, q)
		e.Available -= give
		fill(give)
		if deficit := q - give; deficit > 0 {
			// Record IOUs toward new flows that are still under target.
			if e.Owes == nil {
				e.Owes = make(map[*FlowCredits]int)
			}
			for k := range need {
				if deficit == 0 {
					break
				}
				if need[k] == 0 {
					continue
				}
				d := min(need[k], deficit)
				e.Owes[newFlows[k]] += d
				need[k] -= d
				deficit -= d
			}
			c.Reallocs++
		}
	}
	return newFlows
}

// RemoveFlow returns the flow's credits (including those still in use by
// draining packets) to the pool, cancels its debts and retires the
// account. Debts other flows owe to it are redirected to the pool when
// paid. The retired account is zeroed, so a holder of its pointer reads no
// credits, and Release and Grant on it are no-ops. Removing a retired
// account again is a no-op.
func (c *CreditController) RemoveFlow(f *FlowCredits) {
	if f.retired {
		return
	}
	c.pool += f.Available + f.InUse
	c.Reclaimed += uint64(f.InUse)
	f.Available, f.InUse = 0, 0
	f.Owes = nil
	f.flow = nil
	f.retired = true
	if i := slices.Index(c.flows, f); i >= 0 {
		c.flows = slices.Delete(c.flows, i, i+1)
	}
}

// Consume attempts to take one credit for an arriving packet. Failure
// means the flow controller must steer the packet to the slow path.
func (c *CreditController) Consume(f *FlowCredits) bool {
	if f.Available == 0 {
		c.Rejected++
		return false
	}
	f.Available--
	f.InUse++
	c.Consumed++
	return true
}

// Release is the lazy credit release (§4.1/§4.2): the CEIO driver calls
// it when the application's head pointer advances past a processed
// message batch, returning n credits. Debts from Algorithm 1 are settled
// first, in ascending creditor-ID order for determinism; the remainder
// returns to the flow.
func (c *CreditController) Release(f *FlowCredits, n int) {
	if n <= 0 || f.retired {
		// A retired account's in-use credits were reclaimed by RemoveFlow,
		// so a straggling release must not refund them twice.
		return
	}
	if n > f.InUse {
		panic(fmt.Sprintf("core: flow %d releasing %d credits with only %d in use", f.ID, n, f.InUse))
	}
	c.Released += uint64(n)
	c.settle(f, n)
}

// byCreditor orders settle's creditors by ascending ID; a retired account
// sorts before a live one that reuses its ID. Retired accounts sharing an
// ID tie, which is harmless: each of them pays the pool.
func byCreditor(a, b *FlowCredits) int {
	if a.ID != b.ID || a.retired == b.retired {
		return cmp.Compare(a.ID, b.ID)
	}
	if a.retired {
		return -1
	}
	return 1
}

// credit adds n to a live account's available balance. A refill from
// zero rings the doorbell of the account's flow: a slow-path flow with
// no credits stops ringing its core (CEIO.Poll's paused state), and this
// is the only way such a flow can get back to where a poll would act.
func (c *CreditController) credit(f *FlowCredits, n int) {
	if f.Available == 0 && n > 0 && f.flow != nil {
		c.doorbell(f.flow)
	}
	f.Available += n
}

// settle frees n of f's in-use credits: they pay down f's IOUs first
// (ascending creditor-ID order for determinism), and the remainder
// returns to f's available balance.
func (c *CreditController) settle(f *FlowCredits, n int) {
	f.InUse -= n
	if !f.InDebt() {
		c.credit(f, n)
		return
	}
	creditors := c.creditors[:0]
	for cr := range f.Owes {
		creditors = append(creditors, cr)
	}
	slices.SortFunc(creditors, byCreditor)
	c.creditors = creditors
	for _, cr := range creditors {
		if n == 0 {
			break
		}
		pay := min(f.Owes[cr], n)
		if cr.retired {
			c.pool += pay
		} else {
			c.credit(cr, pay)
		}
		n -= pay
		c.DebtsPaid += uint64(pay)
		if f.Owes[cr] -= pay; f.Owes[cr] == 0 {
			delete(f.Owes, cr)
		}
	}
	c.credit(f, n)
}

// ReclaimInUse forcibly recovers up to n of the flow's in-use credits
// without an application release. The reconciliation timer calls it when
// the host's release counter shows releases that never reached the
// controller (a lost release message would otherwise leak the credits
// forever). Recovered credits settle the flow's debts first, like a
// normal release, and the remainder returns to the flow's available
// balance. It returns the number actually reclaimed.
func (c *CreditController) ReclaimInUse(f *FlowCredits, n int) int {
	r := min(f.InUse, n)
	if r <= 0 {
		return 0
	}
	c.Reclaimed += uint64(r)
	c.settle(f, r)
	return r
}

// Recycle implements the active-flow strategy's reclamation (§4.1 Q3):
// an inactive flow's available credits return to the pool for
// reallocation. It returns the number recycled.
func (c *CreditController) Recycle(f *FlowCredits) int {
	n := f.Available
	f.Available = 0
	c.pool += n
	return n
}

// Take moves up to n of the flow's available credits back to the pool
// (partial recycle) and returns the amount taken.
func (c *CreditController) Take(f *FlowCredits, n int) int {
	t := max(0, min(f.Available, n))
	f.Available -= t
	c.pool += t
	return t
}

// Grant moves up to max credits from the pool to the flow and returns the
// amount granted (none to a retired account).
func (c *CreditController) Grant(f *FlowCredits, max int) int {
	if f.retired || max <= 0 {
		return 0
	}
	g := min(c.pool, max)
	c.pool -= g
	c.credit(f, g)
	return g
}

// FairShare returns C_total divided by the current flow count (C_flow of
// Eq. 2), or C_total when no flows exist.
func (c *CreditController) FairShare() int {
	if len(c.flows) == 0 {
		return c.total
	}
	return c.total / len(c.flows)
}

// CheckInvariant verifies credit conservation.
func (c *CreditController) CheckInvariant() error {
	sum := c.pool
	for _, f := range c.flows {
		if f.Available < 0 || f.InUse < 0 {
			return fmt.Errorf("flow %d negative account: avail=%d inuse=%d", f.ID, f.Available, f.InUse)
		}
		sum += f.Available + f.InUse
	}
	if sum != c.total {
		return fmt.Errorf("credit leak: sum=%d total=%d", sum, c.total)
	}
	return nil
}

// CheckConservation verifies the lifetime credit ledger: every consumed
// credit is either still in use by an in-flight packet, was released by
// the application, or was reclaimed by reconciliation/teardown. A
// shortfall means credits leaked (e.g. a lost release message that
// reconciliation has not yet recovered); a surplus means double refund.
func (c *CreditController) CheckConservation() error {
	var inUse uint64
	for _, f := range c.flows {
		if f.InUse < 0 {
			return fmt.Errorf("flow %d negative in-use count %d", f.ID, f.InUse)
		}
		inUse += uint64(f.InUse)
	}
	if got := c.Released + c.Reclaimed + inUse; got != c.Consumed {
		return fmt.Errorf("credit ledger mismatch: consumed=%d released=%d reclaimed=%d in-use=%d",
			c.Consumed, c.Released, c.Reclaimed, inUse)
	}
	return nil
}

package core

import "fmt"

// Per-core credit shares: on a multi-queue machine (Config.Cores > 0) the
// Eq. 1 budget C_total is carved into one share per rx-queue core, the
// same way a partitioned machine carves it per tenant. A core whose flows
// hold its whole share in flight diverts further arrivals to the slow
// path instead of letting one hot core's DMA writes evict the buffers of
// flows other cores have yet to consume — Algorithm 1's bound applied at
// core granularity. Shares derive from the per-flow InUse ledger (a
// flow's controller InUse count is exactly its in-flight fast-path packet
// population), so the per-core holdings are computed, never double-booked,
// and cannot drift. The active-flow scan re-carves shares by per-core
// active-flow population, moving credits between cores the same way the
// Q3 reallocation moves them between flows.
//
// The per-core holdings are summed over member lists rather than over
// every flow. A flow's rx queue is fixed at AddFlow, so on a multi-queue
// machine each live flow sits, from FlowAdded to FlowRemoved, in exactly
// one byQueue list, and its slot field records where, for O(1)
// swap-removal. Summing InUse over one list's accounts costs
// O(flows on that queue) per admission instead of a scan of every flow.
// AuditCoreShares checks that the lists partition the live flows and that
// every list sum equals a scan.

// queueOf returns the byQueue list st belongs to, or -1 when the lists
// are not kept (single-core machines and the MPQ strawman).
func (c *CEIO) queueOf(st *flowState) int {
	if q := st.f.QueueIndex(); q >= 0 && q < len(c.byQueue) {
		return q
	}
	return -1
}

// addMember lists a newly added flow under its rx queue.
func (c *CEIO) addMember(st *flowState) {
	if q := c.queueOf(st); q >= 0 {
		st.slot = int32(len(c.byQueue[q]))
		c.byQueue[q] = append(c.byQueue[q], st)
	}
}

// dropMember unlists a removed flow, moving its list's last member into
// the vacated slot.
func (c *CEIO) dropMember(st *flowState) {
	if st.slot < 0 {
		return
	}
	q := c.queueOf(st)
	list := c.byQueue[q]
	last := list[len(list)-1]
	list[st.slot], last.slot = last, st.slot
	list[len(list)-1] = nil
	c.byQueue[q] = list[:len(list)-1]
	st.slot = -1
}

// auditMembers checks the byQueue lists against a scan of the live
// flows: every live flow sits at its own slot of its own queue's list,
// the lists hold no other flows, and each list's InUse sum equals the
// scan's.
func (c *CEIO) auditMembers() error {
	c.auditSums = append(c.auditSums[:0], make([]int, len(c.byQueue))...)
	live := 0
	for _, st := range c.flows {
		q := c.queueOf(st)
		if q < 0 {
			continue
		}
		live++
		if i := st.slot; i < 0 || int(i) >= len(c.byQueue[q]) || c.byQueue[q][i] != st {
			return fmt.Errorf("core: live flow %d missing from its queue list %d", st.f.ID, q)
		}
		c.auditSums[q] += st.cred.InUse
	}
	listed := 0
	for q, list := range c.byQueue {
		listed += len(list)
		if got := c.coreInUse(q); got != c.auditSums[q] {
			return fmt.Errorf("core: queue list %d holds %d in-use credits, a scan of the live flows finds %d",
				q, got, c.auditSums[q])
		}
	}
	if listed != live {
		return fmt.Errorf("core: queue lists hold %d flows, %d live flows belong to them", listed, live)
	}
	return nil
}

// carveShares splits total credits across len(weights) shares,
// proportionally to the weights (equally when all weights are zero).
// Remainders go to the lowest indexes, so the result always sums exactly
// to total and is deterministic.
func carveShares(total int, weights []int) []int {
	n := len(weights)
	if n == 0 {
		return nil
	}
	sumW := 0
	for _, w := range weights {
		if w > 0 {
			sumW += w
		}
	}
	shares := make([]int, n)
	given := 0
	if sumW == 0 {
		for i := range shares {
			shares[i] = total / n
			given += shares[i]
		}
	} else {
		for i, w := range weights {
			if w > 0 {
				shares[i] = total * w / sumW
				given += shares[i]
			}
		}
	}
	for i := 0; given < total; i = (i + 1) % n {
		if sumW == 0 || weights[i] > 0 {
			shares[i]++
			given++
		}
	}
	return shares
}

// coreInUse sums the fast-path credits currently in flight for the flows
// RSS dispatched onto rx queue q (the per-core analogue of tenantInUse).
func (c *CEIO) coreInUse(q int) int {
	held := 0
	for _, st := range c.byQueue[q] {
		held += st.cred.InUse
	}
	return held
}

// coreBudgetOK reports whether st's core may put another fast-path buffer
// in flight: the core's in-use credits must stay below its carved share.
// Single-core machines (no shares) and the MPQ strawman are unbounded
// here — the global C_total already gates them.
func (c *CEIO) coreBudgetOK(st *flowState) bool {
	q := st.f.QueueIndex()
	if c.coreShares == nil || q < 0 || q >= len(c.coreShares) {
		return true
	}
	return c.coreInUse(q) < c.coreShares[q]
}

// recarveCoreShares redistributes C_total across cores proportionally to
// each core's active-flow population, run from the Q3 active-flow scan. A
// core that went idle donates its share to the busy ones, exactly as an
// idle flow's credits are recycled; CoreCreditsMoved counts the credits
// that changed cores. The carve is a bound, not an assignment — no
// controller state moves, so conservation is untouched and in-flight
// packets above a shrunken share simply drain off.
func (c *CEIO) recarveCoreShares() {
	if c.coreShares == nil {
		return
	}
	weights := make([]int, len(c.coreShares))
	for _, st := range c.flows {
		if !st.active {
			continue
		}
		if q := st.f.QueueIndex(); q >= 0 && q < len(weights) {
			weights[q]++
		}
	}
	next := carveShares(c.ctrl.Total(), weights)
	for q, s := range next {
		if d := s - c.coreShares[q]; d > 0 {
			c.CoreCreditsMoved += uint64(d)
		}
	}
	c.coreShares = next
}

// AuditCoreShares verifies the per-core carve invariant at runtime: every
// share is non-negative and the shares sum exactly to Algorithm 1's
// C_total, through every recarve a fault storm can trigger, and the
// per-queue member lists partition the live flows with holdings equal to
// a scan. Nil on single-core machines (nothing is carved). The invariants
// auditor calls this from its periodic sweep.
func (c *CEIO) AuditCoreShares() error {
	if c.coreShares == nil {
		return nil
	}
	if err := c.auditMembers(); err != nil {
		return err
	}
	sum := 0
	for q, s := range c.coreShares {
		if s < 0 {
			return fmt.Errorf("core: core %d has negative credit share %d", q, s)
		}
		sum += s
	}
	if total := c.ctrl.Total(); sum != total {
		return fmt.Errorf("core: per-core credit shares sum to %d, want C_total=%d", sum, total)
	}
	return nil
}

// CoreShares returns a copy of the current per-core credit shares (nil on
// single-core machines). The shares always sum to the controller total.
func (c *CEIO) CoreShares() []int {
	if c.coreShares == nil {
		return nil
	}
	out := make([]int, len(c.coreShares))
	copy(out, c.coreShares)
	return out
}

package core

import (
	"ceio/internal/pkt"
)

// The Multiple-Priority-Queues strawman (Options.MPQ) that §4.1
// considers and rejects in favour of lazy credit release. It follows
// PIAS: every flow starts at the highest priority and decays as its
// cumulative bytes cross the demotion thresholds, on the assumption that
// datacenter flows are long-tail distributed (most flows short, a few
// very large). Fast-path admission digs into the shared credit pool by
// priority: the highest priority may drain the pool completely, while
// each lower priority must leave a progressively larger reserve.
//
// The paper's criticism, which the MPQ ablation experiment reproduces:
// CPU-involved flows are not always short (continuous RPC streams, video,
// overlay traffic), so priority decay eventually demotes exactly the
// flows that need the fast path.
//
// The parameters mirror a small PIAS deployment: four priority levels
// with demotion at 100KB / 1MB / 10MB, each level reserving another 20%
// of the pool.

// mpqDemotionBytes are the cumulative-bytes thresholds between priority
// levels, ascending (PIAS-style). len(mpqDemotionBytes)+1 levels total.
var mpqDemotionBytes = [...]uint64{100 << 10, 1 << 20, 10 << 20}

// MPQReserveFraction is the extra fraction of the credit pool each
// priority level below the highest must leave untouched.
const MPQReserveFraction = 0.20

// MPQPriorityOf returns the PIAS priority (0 = highest) for a cumulative
// byte count (exported for tests and diagnostics).
func MPQPriorityOf(sent uint64) int {
	p := 0
	for _, th := range mpqDemotionBytes {
		if sent >= th {
			p++
		}
	}
	return p
}

// MPQReserveFor returns the credit-pool floor priority p must respect.
func MPQReserveFor(p, total int) int {
	r := int(float64(total) * MPQReserveFraction * float64(p))
	if r > total {
		r = total
	}
	return r
}

// mpqAdmit implements fast-path admission under the MPQ scheduler: a
// single shared credit pool with per-priority reserves, eager release.
func (c *CEIO) mpqAdmit(st *flowState, p *pkt.Packet) bool {
	st.sentBytes += uint64(p.Size)
	st.priority = MPQPriorityOf(st.sentBytes)
	available := c.ctrl.Total() - c.mpqInUse
	if available <= MPQReserveFor(st.priority, c.ctrl.Total()) {
		return false
	}
	c.mpqInUse++
	return true
}

// mpqReleaseOne returns one shared credit on delivery (eager release —
// MPQ has no message-batch semantics).
func (c *CEIO) mpqReleaseOne() {
	if c.mpqInUse > 0 {
		c.mpqInUse--
	}
}

// FlowPriority reports a flow's current PIAS priority under the MPQ
// scheduler (0 = highest; -1 when MPQ is disabled or the flow is
// unknown). Exposed for the ablation experiment and diagnostics.
func (c *CEIO) FlowPriority(id int) int {
	if f := c.m.Flows[id]; f != nil && c.opt.MPQ {
		return f.DP.(*flowState).priority
	}
	return -1
}

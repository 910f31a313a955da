package core

import (
	"ceio/internal/pkt"
)

// MPQConfig parameterises the Multiple-Priority-Queues strawman that §4.1
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
type MPQConfig struct {
	// DemotionBytes are the cumulative-bytes thresholds between priority
	// levels, ascending (PIAS-style). len(DemotionBytes)+1 levels total.
	DemotionBytes []uint64
	// ReserveFraction is the extra fraction of the credit pool each
	// priority level below the highest must leave untouched.
	ReserveFraction float64
}

// DefaultMPQConfig mirrors a small PIAS deployment: four priority levels
// with demotion at 100KB / 1MB / 10MB, each level reserving another 20%
// of the pool.
func DefaultMPQConfig() MPQConfig {
	return MPQConfig{
		DemotionBytes:   []uint64{100 << 10, 1 << 20, 10 << 20},
		ReserveFraction: 0.20,
	}
}

// mpqState augments a flow with PIAS priority tracking.
type mpqState struct {
	sentBytes uint64
	priority  int
}

// PriorityOf returns the PIAS priority (0 = highest) for a cumulative
// byte count (exported for tests and diagnostics).
func (cfg MPQConfig) PriorityOf(sent uint64) int {
	p := 0
	for _, th := range cfg.DemotionBytes {
		if sent >= th {
			p++
		}
	}
	return p
}

// ReserveFor returns the credit-pool floor priority p must respect.
func (cfg MPQConfig) ReserveFor(p, total int) int {
	r := int(float64(total) * cfg.ReserveFraction * float64(p))
	if r > total {
		r = total
	}
	return r
}

// mpqAdmit implements fast-path admission under the MPQ scheduler: a
// single shared credit pool with per-priority reserves, eager release.
func (c *CEIO) mpqAdmit(st *flowState, p *pkt.Packet) bool {
	cfg := *c.opt.MPQ
	ms := c.mpqOf(st)
	ms.sentBytes += uint64(p.Size)
	ms.priority = cfg.PriorityOf(ms.sentBytes)
	available := c.ctrl.Total() - c.mpqInUse
	if available <= cfg.ReserveFor(ms.priority, c.ctrl.Total()) {
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

// mpqOf lazily attaches MPQ state to a flow.
func (c *CEIO) mpqOf(st *flowState) *mpqState {
	if st.mpq == nil {
		st.mpq = &mpqState{}
	}
	return st.mpq
}

// FlowPriority reports a flow's current PIAS priority under the MPQ
// scheduler (0 = highest; -1 when MPQ is disabled or the flow is
// unknown). Exposed for the ablation experiment and diagnostics.
func (c *CEIO) FlowPriority(id int) int {
	if f := c.m.Flows[id]; f != nil && f.DP.(*flowState).mpq != nil {
		return f.DP.(*flowState).mpq.priority
	}
	return -1
}

package baseline

import (
	"ceio/internal/iosys"
	"ceio/internal/sim"
	"ceio/internal/stats"
	"ceio/internal/transport"
)

// MissThreshold is the per-period LLC miss fraction that counts as host
// congestion.
const MissThreshold = 0.40

// HostCCConfig parameterises the reactive controller.
type HostCCConfig struct {
	// Period is the kernel module's sampling interval.
	Period sim.Time
	// ReactionDelay is the lag between detecting host congestion and the
	// CCA rate reduction taking effect at the sender — the "slow
	// response" the paper critiques (§2.3): the congestion signal is
	// generated only once LLC misses are already occurring.
	ReactionDelay sim.Time
	// IIOThreshold is the IIO fill fraction that counts as congestion.
	IIOThreshold float64
	// Cooldown limits how often a given flow is force-reduced.
	Cooldown sim.Time
}

// DefaultHostCCConfig matches the deployment in §6.1: a kernel module
// monitoring IIO occupancy and PCIe/memory pressure, triggering DCTCP.
func DefaultHostCCConfig() HostCCConfig {
	return HostCCConfig{
		// The real HostCC's signals (IIO occupancy, PCIe bandwidth) track
		// LLC overflow only loosely and reactively: congestion is visible
		// only once misses are already happening, and the kernel-module
		// control loop plus CCA invocation add tens of microseconds. The
		// coarse threshold and long cooldown reproduce that slack — the
		// "slow response" limitation of §2.3.
		Period:        10 * sim.Microsecond,
		ReactionDelay: 40 * sim.Microsecond,
		IIOThreshold:  0.5,
		Cooldown:      80 * sim.Microsecond,
	}
}

// HostCC layers reactive host congestion control over the legacy
// datapath: when the sampled congestion signals (IIO occupancy, LLC miss
// rate) indicate the I/O flow is outrunning the CPU or memory controller,
// it triggers the network CCA to reduce the senders' rates.
type HostCC struct {
	Legacy
	cfg HostCCConfig

	lastHits, lastMisses uint64
	lastTrigger          map[int]sim.Time

	// Triggers counts congestion-driven CCA invocations.
	Triggers uint64
}

// NewHostCC builds the controller with cfg.
func NewHostCC(cfg HostCCConfig) *HostCC {
	return &HostCC{cfg: cfg, lastTrigger: make(map[int]sim.Time)}
}

// Name implements iosys.Datapath.
func (h *HostCC) Name() string { return "HostCC" }

// Attach starts the monitoring loop.
func (h *HostCC) Attach(m *iosys.Machine) {
	h.Legacy.Attach(m)
	m.Eng.Every(h.cfg.Period, h.cfg.Period, h.monitor)
}

func (h *HostCC) monitor() {
	m := h.m
	hits, misses := m.LLC.Hits, m.LLC.Misses
	dHits, dMisses := hits-h.lastHits, misses-h.lastMisses
	h.lastHits, h.lastMisses = hits, misses

	congested := false
	if m.IIO.Fill() > h.cfg.IIOThreshold {
		congested = true
	}
	if mr := stats.Ratio(dMisses, dHits+dMisses); mr > MissThreshold && dMisses > 8 {
		congested = true
	}
	if !congested {
		return
	}
	now := m.Eng.Now()
	for id, f := range m.Flows {
		if last, ok := h.lastTrigger[id]; ok && now-last < h.cfg.Cooldown {
			continue
		}
		h.lastTrigger[id] = now
		h.Triggers++
		// The reduction reaches the sender only after the reaction delay;
		// by then more packets have already missed the LLC.
		m.Eng.AfterArg(h.cfg.ReactionDelay, forceReduce, f.CC)
	}
}

// forceReduce is the delayed reaction monitor schedules: one
// package-level func value, so a trigger allocates no method value.
func forceReduce(arg any) { arg.(*transport.FlowCC).ForceReduce() }

// FlowRemoved forgets the flow's trigger cooldown, so the map does not
// grow with every flow ever seen and a re-added flow ID starts fresh.
func (h *HostCC) FlowRemoved(f *iosys.Flow) {
	h.Legacy.FlowRemoved(f)
	delete(h.lastTrigger, f.ID)
}

var _ iosys.Datapath = (*HostCC)(nil)

// Package transport implements the network congestion-control algorithms
// (CCAs) the I/O system interacts with. The paper uses DCTCP as the basic
// network rate control (§2.3); HostCC *triggers* it on host congestion and
// ShRing triggers it through packet loss, while CEIO leaves it untouched.
//
// The implementation is rate-based rather than window-based: each flow
// maintains a sending rate adjusted once per control interval (one RTT)
// using DCTCP's marked-fraction estimator
//
//	alpha <- (1-g)*alpha + g*F        (F = fraction of marked packets)
//	rate  <- rate * (1 - alpha/2)     when any packet was marked
//	rate  <- rate + additiveIncrease  otherwise
//
// which preserves DCTCP's proportional back-off behaviour while fitting a
// discrete-event model that does not simulate individual ACK clocking.
//
// A controller whose bounds pin its rate (MinRate == MaxRate, as for
// FixedRate flows that model RDMA UD traffic, which has no transport CC)
// runs no control loop: setRate clamps every tick, loss and forced
// reduction back to that one rate, so the tick could change nothing a
// caller reads through Rate or Window. Such a controller still counts
// acks, marks, losses and forced triggers; only the per-RTT alpha and
// Reductions updates go.
package transport

import (
	"ceio/internal/sim"
	"ceio/internal/stats"
)

// Config parameterises a DCTCP-style rate controller.
type Config struct {
	// RTT is the control-loop interval (the network round-trip time).
	RTT sim.Time
	// Gain is DCTCP's g for the alpha EWMA (paper setup: 1/16).
	Gain float64
	// MinRate and MaxRate bound the sending rate in bytes/second;
	// MaxRate is normally the line rate.
	MinRate float64
	MaxRate float64
	// AdditiveIncrease is the per-RTT rate increment in bytes/second when
	// no congestion was observed.
	AdditiveIncrease float64
	// LossBackoff is the multiplicative factor applied on packet loss
	// (losses indicate buffer overrun, a stronger signal than ECN).
	LossBackoff float64
}

// DefaultConfig returns the parameters used across the experiments for a
// 200 Gbps fabric.
func DefaultConfig() Config {
	return Config{
		RTT:              20 * sim.Microsecond,
		Gain:             1.0 / 16,
		MinRate:          2e8,  // floor: one ~MTU window per RTT class
		MaxRate:          25e9, // 200 Gbps
		AdditiveIncrease: 75e6, // ~1 MSS of window per RTT (1500B/20µs)
		LossBackoff:      0.5,
	}
}

// FlowCC is the per-flow DCTCP state machine.
type FlowCC struct {
	cfg  Config
	eng  *sim.Engine
	rate float64

	alpha    stats.EWMA
	acked    uint64
	marked   uint64
	lost     uint64
	lastLoss sim.Time
	haveLoss bool
	stopTick func()

	// Statistics.
	Reductions     uint64 // multiplicative decreases (ECN-driven)
	LossEvents     uint64
	ForcedTriggers uint64 // HostCC-style external CCA invocations
	TotalAcked     uint64
	TotalMarked    uint64
}

// New creates a rate controller starting at initialRate bytes/second and
// begins its control loop on the engine, unless cfg's bounds pin the rate
// (MinRate >= MaxRate), in which case there is no loop to run. The first
// tick comes one RTT after creation, so a controller created mid-run
// closes a full control interval before it first adjusts.
func New(eng *sim.Engine, cfg Config, initialRate float64) *FlowCC {
	if initialRate < cfg.MinRate {
		initialRate = cfg.MinRate
	}
	if initialRate > cfg.MaxRate {
		initialRate = cfg.MaxRate
	}
	f := &FlowCC{cfg: cfg, eng: eng, rate: initialRate}
	f.alpha.Gain = cfg.Gain
	if cfg.MinRate < cfg.MaxRate {
		f.stopTick = eng.Every(eng.Now()+cfg.RTT, cfg.RTT, f.tick)
	}
	return f
}

// Stop cancels the control loop (flow teardown); a no-op on a pinned
// controller, which has none.
func (f *FlowCC) Stop() {
	if f.stopTick != nil {
		f.stopTick()
	}
}

// Rate returns the current sending rate in bytes/second.
func (f *FlowCC) Rate() float64 { return f.rate }

// Window returns the congestion window in bytes (rate x RTT): the bound
// on un-acknowledged in-flight data. Window-limiting is what couples the
// sender to receiver-side consumption — the property HostCC and ShRing
// rely on when they trigger the CCA.
func (f *FlowCC) Window() float64 { return f.rate * f.cfg.RTT.Seconds() }

// OnAck records delivery feedback for one packet; marked conveys ECN.
func (f *FlowCC) OnAck(marked bool) {
	f.acked++
	f.TotalAcked++
	if marked {
		f.marked++
		f.TotalMarked++
	}
}

// OnLoss records a packet loss. Loss feedback acts immediately (timeout/
// fast-retransmit semantics collapsed into the event) rather than waiting
// for the next control tick, but at most one multiplicative back-off is
// applied per RTT — a burst of drops within one window is one congestion
// event, as in real TCP loss recovery.
func (f *FlowCC) OnLoss() {
	f.lost++
	f.LossEvents++
	now := f.eng.Now()
	if f.haveLoss && now-f.lastLoss < f.cfg.RTT {
		return
	}
	f.lastLoss, f.haveLoss = now, true
	f.setRate(f.rate * f.cfg.LossBackoff)
}

// ForceReduce is the hook HostCC uses: it triggers the CCA with an
// explicit congestion indication, causing a multiplicative decrease as if
// a fully-marked window had been observed.
func (f *FlowCC) ForceReduce() {
	f.ForcedTriggers++
	f.alpha.Update(1)
	f.setRate(f.rate * (1 - f.alpha.Value()/2))
}

func (f *FlowCC) setRate(r float64) {
	if r < f.cfg.MinRate {
		r = f.cfg.MinRate
	}
	if r > f.cfg.MaxRate {
		r = f.cfg.MaxRate
	}
	f.rate = r
}

// tick runs once per RTT: fold the marked fraction into alpha and adjust.
func (f *FlowCC) tick() {
	if f.acked > 0 {
		frac := float64(f.marked) / float64(f.acked)
		f.alpha.Update(frac)
		if f.marked > 0 {
			f.Reductions++
			f.setRate(f.rate * (1 - f.alpha.Value()/2))
		} else {
			f.setRate(f.rate + f.cfg.AdditiveIncrease)
		}
	} else if f.lost == 0 {
		// Idle or starved flow: probe upward gently.
		f.setRate(f.rate + f.cfg.AdditiveIncrease/4)
	}
	f.acked, f.marked, f.lost = 0, 0, 0
}

// Alpha exposes the congestion estimate for diagnostics.
func (f *FlowCC) Alpha() float64 { return f.alpha.Value() }

// MarkRate returns the lifetime fraction of acked packets that carried
// ECN marks.
func (f *FlowCC) MarkRate() float64 { return stats.Ratio(f.TotalMarked, f.TotalAcked) }

package rdca

import (
	"strconv"

	"ceio/internal/telemetry"
)

// RegisterMetrics publishes the RDCA datapath's window-controller state
// into the machine's registry (iosys.MetricSource). The per-partition
// gauges expose the receiver-driven control loop at runtime: window vs
// cap shows how close the in-flight set sits to the partition's Eq. 1
// budget, inflight vs window shows saturation, and the shrink/grow
// counters record which signal (eviction, imminence, or headroom) last
// moved the window. RegisterMetrics runs after Attach, so the partition
// geometry — and therefore the label set — is final.
func (d *RDCA) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("rdca.demoted_total", "Bypass buffers dropped from the LLC at delivery (recycled while still resident).",
		func() uint64 { return d.Demoted })
	reg.Counter("rdca.evicted_inflight_total", "In-flight rx buffers evicted from the LLC before consumption.",
		func() uint64 { return d.EvictedInflight })
	reg.Counter("rdca.shrinks.evict_total", "Window halvings triggered by an observed in-flight eviction.",
		func() uint64 { return d.EvictShrinks })
	reg.Counter("rdca.shrinks.imminent_total", "Gentle window shrinks triggered by the eviction-imminence probe.",
		func() uint64 { return d.ImminentShrinks })
	reg.Counter("rdca.grows_total", "Additive window grows (window saturated with no cache pressure).",
		func() uint64 { return d.Grows })
	reg.Counter("rdca.pend_drops_total", "Bypass arrivals dropped by the parked-backlog bound.",
		func() uint64 { return d.PendDrops })
	for pi := range d.wins {
		pi := pi
		lbl := telemetry.L("part", strconv.Itoa(pi))
		reg.Gauge("rdca.window_count", "Current admission window of the partition, in I/O buffers.",
			func() float64 { return float64(d.wins[pi].window) }, lbl)
		reg.Gauge("rdca.window.cap_count", "Window cap: the partition's Eq. 1 budget scaled by the residency target.",
			func() float64 { return float64(d.wins[pi].cap) }, lbl)
		reg.Gauge("rdca.inflight_count", "Admitted-but-undelivered buffers charged against the partition's window.",
			func() float64 { return float64(d.wins[pi].inFlight) }, lbl)
		reg.Gauge("rdca.pending_count", "Arrivals parked awaiting window admission in the partition's FIFO.",
			func() float64 { return float64(d.wins[pi].pend.Len()) }, lbl)
	}
}

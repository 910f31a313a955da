package fabric

import "ceio/internal/telemetry"

// RegisterMetrics publishes the switch's counters under fabric.*
// (catalogued in OBSERVABILITY.md). The fleet registers them into its
// rack-level registry, next to the fleet.* balancer series: the fabric
// belongs to the rack, not to any host.
func (s *Switch[P]) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("fabric.msgs.injected_total",
		"Frames offered to the ToR switch.", func() uint64 { return s.stats.InjectedMsgs })
	reg.Counter("fabric.msgs.delivered_total",
		"Frames that finished serialization and left on the wire.", func() uint64 { return s.stats.DeliveredMsgs })
	reg.Counter("fabric.msgs.dropped_total",
		"Frames dropped at ingress (buffer full or port down).", func() uint64 { return s.stats.DroppedMsgs })
	reg.Counter("fabric.bytes.injected_total",
		"Bytes offered to the ToR switch.", func() uint64 { return s.stats.InjectedBytes })
	reg.Counter("fabric.bytes.delivered_total",
		"Bytes delivered on the wire.", func() uint64 { return s.stats.DeliveredBytes })
	reg.Counter("fabric.bytes.dropped_total",
		"Bytes dropped at ingress.", func() uint64 { return s.stats.DroppedBytes })
	reg.Counter("fabric.drops.tail_total",
		"Ingress drops from shared-buffer exhaustion (tail drop).", func() uint64 { return s.stats.TailDrops })
	reg.Counter("fabric.drops.port_down_total",
		"Ingress drops on an administratively down (flapped) port.", func() uint64 { return s.stats.PortDownDrops })
	reg.Gauge("fabric.buffer.occupancy_bytes",
		"Shared switch buffer in use (queued plus in-service frames).",
		func() float64 { return float64(s.QueuedBytes()) })
	reg.Gauge("fabric.queue.msgs_count",
		"Frames queued or in service across all egress ports.",
		func() float64 { return float64(s.QueuedMsgs()) })
	reg.Gauge("fabric.ports.down_count",
		"Ports currently flapped down by the fabric fault plan.",
		func() float64 { return float64(s.DownPorts()) })
	reg.Gauge("fabric.capacity.factor_ratio",
		"Line-rate scale applied by the fabric_cut degrade (1 = full).",
		func() float64 { return s.capFactor })
}

// Package baseline implements the comparison I/O architectures of the
// paper's evaluation: the unmanaged legacy DDIO datapath, HostCC's
// reactive host congestion control, and ShRing's fixed shared receive
// ring. Each is an iosys.Datapath; CEIO itself lives in internal/core.
package baseline

import (
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/ring"
)

// Legacy is the unmanaged DDIO datapath of Figure 2: per-flow hardware
// receive rings, DMA straight into the DDIO region of the LLC, no I/O
// rate or capacity management. Under memory pressure its in-flight volume
// is bounded only by the ring sizes, far above the DDIO capacity, so the
// LLC thrashes.
type Legacy struct {
	m *iosys.Machine
}

// NewLegacy returns the baseline datapath.
func NewLegacy() *Legacy { return &Legacy{} }

// Name implements iosys.Datapath.
func (l *Legacy) Name() string { return "Baseline" }

// Attach implements iosys.Datapath.
func (l *Legacy) Attach(m *iosys.Machine) { l.m = m }

// FlowAdded allocates a CPU-involved flow's receive ring; it rides in
// Flow.DP as a *ring.HWRing. Bypass flows never post to a ring.
func (l *Legacy) FlowAdded(f *iosys.Flow) {
	if f.Kind == iosys.CPUInvolved {
		f.DP = ring.NewHWRing(l.m.Cfg.RxRingEntries)
	}
}

// FlowRemoved drops the landed packets the flow's rx ring still holds,
// since no core polls a removed flow; packets whose DMA is in flight are
// dropped as they land.
func (l *Legacy) FlowRemoved(f *iosys.Flow) {
	if rx, ok := f.DP.(*ring.HWRing); ok {
		rx.Drain(func(p *pkt.Packet) { l.m.Drop(f, p) })
	}
}

// Ingress posts the packet to the flow's rx ring (dropping when the ring
// is full) and DMAs it to the host.
func (l *Legacy) Ingress(f *iosys.Flow, p *pkt.Packet) {
	// CPU-bypass flows have no rx ring: RDMA-style, no ring limit on the
	// host side.
	rx, _ := f.DP.(*ring.HWRing)
	if rx != nil && rx.Free() == 0 {
		l.m.Drop(f, p)
		return
	}
	if !l.m.ReserveHostBuf(p) {
		l.m.DropNoHostBuf(f, p)
		return
	}
	if rx != nil {
		rx.Post(p)
	}
	l.m.DMAToHost(f, p)
}

// Landed hands a landed CPU-bypass packet to its memory-controller
// consumer; CPU-involved packets wait in the rx ring for the core's poll.
// A packet of a removed flow is dropped.
func (l *Legacy) Landed(f *iosys.Flow, p *pkt.Packet) {
	switch {
	case f.Removed():
		l.m.Drop(f, p)
	case f.Kind == iosys.CPUBypass:
		l.m.ConsumeBypass(f, p)
	}
}

// Poll hands landed packets from the flow's rx ring to the core.
func (l *Legacy) Poll(f *iosys.Flow, out []*pkt.Packet, max int) []*pkt.Packet {
	return f.DP.(*ring.HWRing).PopLanded(out, max)
}

// OnDelivered implements iosys.Datapath.
func (l *Legacy) OnDelivered(f *iosys.Flow, p *pkt.Packet) {}

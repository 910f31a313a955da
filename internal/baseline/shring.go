package baseline

import (
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/ring"
)

// ShRingConfig parameterises the shared-ring datapath.
type ShRingConfig struct {
	// Entries is the shared receive queue size. The paper configures 4096
	// entries against a 12 MB LLC; with this model's 6 MB DDIO region the
	// equivalent "below LLC capacity" setting is 2048 entries x 2 KB
	// buffers = 4 MB (see EXPERIMENTS.md for the scaling note).
	Entries int
}

// DefaultShRingConfig returns the scaled shared-ring size.
func DefaultShRingConfig() ShRingConfig { return ShRingConfig{Entries: 2048} }

// ShRing implements the fixed-buffer direction of the design space
// (§2.3): all flows share a single receive-queue budget sized below the
// LLC capacity, so in-flight I/O data can never exceed the DDIO region
// and LLC misses are eliminated — at the cost of dropping packets
// whenever the shared budget is exhausted, which repeatedly triggers the
// network CCA ("slow network transmission rate", Table 1).
type ShRing struct {
	m   *iosys.Machine
	cfg ShRingConfig

	used int // occupied shared entries

	// SharedFull counts drops due to shared-budget exhaustion.
	SharedFull uint64
	// MaxUsed tracks peak shared occupancy.
	MaxUsed int
}

// NewShRing builds the datapath.
func NewShRing(cfg ShRingConfig) *ShRing {
	if cfg.Entries <= 0 {
		cfg = DefaultShRingConfig()
	}
	return &ShRing{cfg: cfg}
}

// Name implements iosys.Datapath.
func (s *ShRing) Name() string { return "ShRing" }

// Attach implements iosys.Datapath.
func (s *ShRing) Attach(m *iosys.Machine) { s.m = m }

// FlowAdded allocates a CPU-involved flow's dispatch FIFO (a
// *ring.HWRing in Flow.DP). Ordering within a flow is kept per flow;
// capacity accounting is shared across all flows, which is what lets
// newly arriving CPU-bypass flows consume the I/O buffers that
// CPU-involved flows were using (the Fig. 4a failure mode). Bypass flows
// take shared entries but never post to a FIFO, so they get none.
func (s *ShRing) FlowAdded(f *iosys.Flow) {
	if f.Kind == iosys.CPUInvolved {
		f.DP = ring.NewHWRing(nextPow2(s.cfg.Entries))
	}
}

// FlowRemoved drops the landed packets in the flow's FIFO and frees
// their shared entries; packets whose DMA is in flight are dropped, and
// their entries freed, as they land.
func (s *ShRing) FlowRemoved(f *iosys.Flow) {
	if rx, ok := f.DP.(*ring.HWRing); ok {
		rx.Drain(func(p *pkt.Packet) {
			s.release()
			s.m.Drop(f, p)
		})
	}
}

func (s *ShRing) take() bool {
	if s.used >= s.cfg.Entries {
		s.SharedFull++
		return false
	}
	s.used++
	if s.used > s.MaxUsed {
		s.MaxUsed = s.used
	}
	return true
}

func (s *ShRing) release() {
	if s.used > 0 {
		s.used--
	}
}

// Ingress admits the packet against the shared budget, dropping on
// exhaustion (the CCA observes the loss).
func (s *ShRing) Ingress(f *iosys.Flow, p *pkt.Packet) {
	if !s.take() {
		s.m.Drop(f, p)
		return
	}
	if !s.m.ReserveHostBuf(p) {
		s.release()
		s.m.DropNoHostBuf(f, p)
		return
	}
	if rx, ok := f.DP.(*ring.HWRing); ok && !rx.Post(p) {
		s.release()
		s.m.Drop(f, p)
		return
	}
	s.m.DMAToHost(f, p)
}

// Landed hands a landed CPU-bypass packet to its memory-controller
// consumer; CPU-involved packets wait in their FIFO for the core's poll.
// A packet of a removed flow is dropped and its shared entry freed.
func (s *ShRing) Landed(f *iosys.Flow, p *pkt.Packet) {
	switch {
	case f.Removed():
		s.release()
		s.m.Drop(f, p)
	case f.Kind == iosys.CPUBypass:
		s.m.ConsumeBypass(f, p)
	}
}

// Poll hands landed packets to the core and frees their shared entries
// (ownership transfers to the application at pop, like posted receives).
func (s *ShRing) Poll(f *iosys.Flow, out []*pkt.Packet, max int) []*pkt.Packet {
	n := len(out)
	out = f.DP.(*ring.HWRing).PopLanded(out, max)
	for range out[n:] {
		s.release()
	}
	return out
}

// OnDelivered frees a CPU-bypass packet's shared entry once its consumer
// has streamed it onward (CPU-involved entries were freed at Poll).
func (s *ShRing) OnDelivered(f *iosys.Flow, p *pkt.Packet) {
	if f.Kind == iosys.CPUBypass {
		s.release()
	}
}

// Used exposes current shared occupancy for tests.
func (s *ShRing) Used() int { return s.used }

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

var _ iosys.Datapath = (*ShRing)(nil)
var _ iosys.Datapath = (*Legacy)(nil)

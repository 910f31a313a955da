package iosys

import (
	"fmt"

	"ceio/internal/dataplane"
	"ceio/internal/sim"
	"ceio/internal/stats"
	"ceio/internal/transport"
)

// Kind distinguishes the two accelerated I/O flow classes of §2.1.
type Kind uint8

const (
	// CPUInvolved flows are consumed by a polling CPU core
	// (RPC servers, NFV, databases): NIC -> LLC -> CPU.
	CPUInvolved Kind = iota
	// CPUBypass flows are consumed by the memory controller without CPU
	// involvement (RDMA file transfer, DFS): NIC -> LLC -> DRAM.
	CPUBypass
)

func (k Kind) String() string {
	if k == CPUBypass {
		return "cpu-bypass"
	}
	return "cpu-involved"
}

// CostModel captures the per-packet CPU work a workload performs beyond
// the driver path. Only CPU-involved flows incur it.
type CostModel struct {
	// PerPacket is the application processing time per packet (KV lookup,
	// VxLAN decapsulation, echo handling, ...).
	PerPacket sim.Time
	// ZeroCopy marks eRPC-style buffer handover; when false the packet is
	// memcpy'd into an application buffer at CopyBandwidth, and each copy
	// misses the LLC on the destination with probability AppBufMissRate
	// (the ~10% residual misses the paper observes for LineFS, §6.4).
	ZeroCopy       bool
	CopyBandwidth  float64
	AppBufMissRate float64
}

// FlowSpec declares a flow to be added to a Machine.
type FlowSpec struct {
	ID      int
	Kind    Kind
	PktSize int // payload bytes per packet
	MsgPkts int // packets per application message (>=1)
	Cost    CostModel
	// InitialRate is the starting send rate in bytes/second (defaults to
	// an equal share of line rate when zero).
	InitialRate float64
	// FixedRate pins the sender at InitialRate with no congestion
	// control, modelling RDMA UD traffic (no transport-level CC), as in
	// the flow-scaling experiment of Fig. 12.
	FixedRate bool
	// PostPasses is the number of additional memory-controller passes a
	// CPU-bypass consumer makes over each received byte (LineFS performs
	// replication and logging on the received chunks, §6.1); 0 for plain
	// bulk transfers.
	PostPasses int
	// BurstOn/BurstOff shape the generator into synchronized on/off
	// bursts: emit at the congestion-controlled rate for BurstOn, idle
	// for BurstOff (phase locked to the simulation clock, so concurrent
	// burst flows form incast). Zero values disable shaping.
	BurstOn  sim.Time
	BurstOff sim.Time
	// Tenant names the tenant owning this flow on a machine configured
	// with Config.Tenancy. Empty means untenanted traffic (shared pool);
	// a non-empty tag must match a registered tenant ID.
	Tenant string
	// Queue selects the rx queue on a machine configured with
	// Config.Cores > 0: 0 lets the RSS hash place the flow, 1..Cores pins
	// it to queue Queue-1 (ethtool-style indirection override). Non-zero
	// values are an error on a single-core (Cores == 0) machine.
	Queue int
	// Pipeline names an ordered chain of dataplane modules (see
	// internal/dataplane) that replaces Cost.PerPacket as the flow's
	// application work: each packet pays every module's cycle cost plus
	// its state-table cache accesses, charged against the LLC. Only valid
	// on CPU-involved flows; nil or empty keeps the scalar cost path,
	// byte for byte.
	Pipeline []string
}

// Flow is the runtime state of one network flow.
type Flow struct {
	FlowSpec
	CC *transport.FlowCC

	m       *Machine
	nextSeq uint64
	msgPos  int
	active  bool
	stopped bool

	// Tenancy resolution, fixed at AddFlow: the owning tenant's registry
	// index (-1 for untagged flows) and the LLC partition this flow's
	// buffers DMA into (0 on untenanted machines). These and queue are
	// int32 so the core pointer fits in Flow's allocation size class.
	tenantIdx int32
	part      int32
	// queue is the rx queue RSS (or an explicit pin) resolved at AddFlow;
	// -1 on Cores == 0 machines.
	queue int32
	// core is the CPU core that drains this flow: its rx queue's core
	// when Config.Cores > 0, a core of its own when Cores == 0. Nil for
	// CPU-bypass flows.
	core *Core
	// pipe is the resolved dataplane module chain when FlowSpec.Pipeline
	// is set; nil keeps the scalar Cost.PerPacket path.
	pipe []*dataplane.Module

	// Window accounting: bytes in flight (emitted, not yet delivered or
	// dropped) and whether the generator is parked waiting for window.
	inFlight      int64
	windowBlocked bool

	// Metrics.
	Generated uint64
	Drops     uint64
	Delivered stats.Meter
	Latency   stats.Histogram

	// DP is scratch state owned by the attached Datapath (per-flow credit
	// accounting, ring references, ...).
	DP any
}

func (f *Flow) String() string {
	return fmt.Sprintf("flow %d (%s, %dB x %d pkts/msg)", f.ID, f.Kind, f.PktSize, f.MsgPkts)
}

// Active reports whether the flow's generator is currently emitting.
func (f *Flow) Active() bool { return f.active && !f.stopped }

// Removed reports whether the flow was torn down (Machine.RemoveFlow).
// Its packets still in flight are dropped as they reach the NIC or land.
func (f *Flow) Removed() bool { return f.stopped }

// TenantIndex returns the owning tenant's registry index, -1 if the flow
// is untagged (or the machine untenanted).
func (f *Flow) TenantIndex() int { return int(f.tenantIdx) }

// Partition returns the LLC partition this flow's buffers DMA into.
func (f *Flow) Partition() int { return int(f.part) }

// QueueIndex returns the rx queue this flow was dispatched to, -1 on
// Config.Cores == 0 machines.
func (f *Flow) QueueIndex() int { return int(f.queue) }

// DeliveredSeq is the highest sequence number handed to the application
// plus one (i.e., count of in-order deliveries); maintained by Machine.
func (f *Flow) DeliveredCount() uint64 { return f.Delivered.Packets }

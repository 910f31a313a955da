// Package pkt defines the packet descriptor shared by the NIC, ring, and
// host layers. A Packet is a descriptor, not payload: the simulation tracks
// data placement through cache.BufID identities rather than bytes. A
// landed packet also carries its LLC node's handle (Packet.LLC); its Buf,
// never reused within a machine, is the generation check on that handle.
//
// Paper-side counterpart (per the DESIGN.md substitution table): the rx
// descriptors the NIC DMA-writes alongside payloads into host rings
// (§2.1's receive path) — carrying here the flow identity, delivery
// sequencing, message framing, and fast/slow path tag that CEIO's SW
// ring ordering protocol (§4.1) depends on.
package pkt

import (
	"ceio/internal/bufpool"
	"ceio/internal/cache"
	"ceio/internal/sim"
)

// Path identifies which I/O path carried a packet to the host.
type Path uint8

const (
	// PathFast is the legacy path: NIC -> (DDIO) LLC -> CPU/DRAM.
	PathFast Path = iota
	// PathSlow is the CEIO elastic path: NIC -> on-NIC memory -> CPU/DRAM.
	PathSlow
)

func (p Path) String() string {
	if p == PathSlow {
		return "slow"
	}
	return "fast"
}

// Packet is one network packet traversing the I/O system.
type Packet struct {
	Buf    cache.BufID // I/O buffer identity for LLC residency tracking
	FlowID int         // owning flow
	Seq    uint64      // per-flow sequence number, assigned at NIC arrival
	Size   int         // payload size in bytes

	Arrival sim.Time // NIC rx timestamp (start of the I/O latency measurement)
	Path    Path     // which path delivered it

	// LLC is the handle of Buf's LLC node, set when the DMA write lands.
	// Every later cache access goes through it; Buf is the generation
	// check that tells a live node from one reused by a later buffer.
	LLC cache.Handle

	// Part is the LLC partition this packet's buffer DMAs into: the
	// owning tenant's partition on a tenanted machine, 0 (the whole DDIO
	// region) otherwise. Stamped at emission from the flow's tenant.
	Part int

	// MsgStart/MsgEnd delimit application messages. MsgEnd triggers lazy
	// credit release (the paper's batch-completion semantics, §4.1) and
	// models RDMA write-with-immediate for CPU-bypass flows.
	MsgStart bool
	MsgEnd   bool

	// Marked carries the ECN congestion mark back to the transport.
	Marked bool

	// Landed flips true once the packet's DMA into host memory completed;
	// ring entries may be reserved before their data arrives, and drivers
	// only deliver landed packets.
	Landed bool

	// HostBuf is the pooled host I/O buffer carrying this packet when the
	// machine runs with a bounded buffer pool (Config.HostBuffers > 0).
	HostBuf *bufpool.Buffer

	// pooled marks descriptors born from a Pool; recycled flips true
	// while such a descriptor is parked on the free list, catching
	// double frees.
	pooled   bool
	recycled bool
}

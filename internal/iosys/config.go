// Package iosys assembles the simulated machine the datapaths run on: the
// 200 Gbps ingress link, the PCIe interconnect and DMA engine, the
// LLC/DDIO and DRAM models, the NIC's on-board memory, per-flow congestion
// control, and the CPU cores that poll receive rings. Concrete I/O
// architectures (legacy DDIO, HostCC, ShRing, CEIO) plug in through the
// Datapath interface.
package iosys

import (
	"fmt"

	"ceio/internal/faults"
	"ceio/internal/sim"
	"ceio/internal/tenant"
	"ceio/internal/transport"
)

// Fixed machine-model parameters of the paper's testbed (§2.3, §6.1). No
// experiment varies them, so they are constants rather than Config
// fields; the PCIe links are built from pcie.DefaultLinkConfig (PCIe 5.0
// x16).
const (
	// MarkThreshold is the rx serialisation backlog that sets ECN marks.
	MarkThreshold = 1500 * sim.Nanosecond
	// ClientOverhead is the constant client-side portion of an end-to-end
	// RPC measurement (sender processing, switch traversal, response
	// path); added to recorded latencies so they are comparable with the
	// client-observed numbers the paper reports.
	ClientOverhead = 1000 * sim.Nanosecond

	// LLCHitLatency is a CPU load served from the LLC.
	LLCHitLatency = 18 * sim.Nanosecond
	// MemBandwidth is the effective memory-controller bandwidth (B/s).
	MemBandwidth = 60e9
	// DRAMLatency is the idle DRAM access latency.
	DRAMLatency = 90 * sim.Nanosecond
	// IIOBytes is the IIO staging buffer capacity.
	IIOBytes = 256 << 10
	// UncoreBW is the IIO->LLC commit bandwidth (the DDIO write port, B/s).
	UncoreBW = 80e9

	// DMACredits bounds the DMA engine's outstanding PCIe writes.
	DMACredits = 256
	// NICPipelineCost is the per-packet firmware/steering latency.
	NICPipelineCost = 60 * sim.Nanosecond

	// IOBufSize is the I/O buffer (LLC management) granularity in bytes.
	IOBufSize = 2048
	// CPUBaseCost is the per-packet driver/ring/descriptor handling.
	CPUBaseCost = 28 * sim.Nanosecond
	// PollInterval is the idle polling period.
	PollInterval = 50 * sim.Nanosecond
	// BatchSize is the number of packets per poll batch.
	BatchSize = 32
)

// Config holds the model parameters that callers vary. DefaultConfig
// matches the paper's testbed (§2.3, §6.1): two Xeon Silver 4309Y
// servers, BlueField-3 NICs, 200 Gbps links, 6 MB of LLC given to DDIO.
type Config struct {
	Seed int64

	// Network ingress.
	LinkBandwidth float64 // bytes/second of the NIC port (25e9 = 200 Gbps)
	EthOverhead   int     // per-packet wire overhead (preamble+IFG+FCS)

	// Host memory hierarchy.
	LLCBytes int64 // DDIO-accessible LLC region

	// NIC.
	NICMemBandwidth float64  // on-NIC DRAM bandwidth
	NICMemLatency   sim.Time // on-NIC access incl. internal PCIe switch
	NICMemBytes     int64    // elastic buffer capacity (16 GB on BF-3)
	RxRingEntries   int      // per-flow hardware rx ring entries

	// CPU.
	// Cores selects the CPU model. 0 gives every CPU-involved flow a core
	// of its own (the paper pins one core per I/O flow, §2.3). N >= 1
	// models N shared cores behind an RSS dispatch stage: flows hash (or
	// pin via FlowSpec.Queue) onto N rx queues and each core round-robins
	// the CPU-involved flows of its queue while all cores share the
	// LLC/DDIO region and PCIe link.
	Cores int
	// HostBuffers bounds the host I/O buffer pool (the post_recv pool of
	// §5). 0 means unbounded. With a bound, a packet that cannot obtain a
	// host buffer is dropped at the NIC (legacy paths) or held in on-NIC
	// memory (CEIO's elastic slow path).
	HostBuffers int

	// Transport.
	CC transport.Config

	// Tenancy, when non-nil, carves the DDIO region into per-tenant LLC
	// partitions (see internal/tenant): flows tagged with a tenant ID
	// insert into their tenant's partition, and ModeDynamic arms the
	// repartitioning controller on the machine's clock. Nil means the
	// pre-tenancy single-region model, byte for byte.
	Tenancy *tenant.Config

	// FaultPlan, when non-nil, arms deterministic fault injection at
	// machine construction (equivalent to SetFaults with an injector
	// built from the plan). Carrying the plan in the config lets whole
	// experiment sweeps — every machine of every cell, including fleet
	// hosts — run under one chaos plan without threading an injector
	// through each builder (the ceio-bench -faults flag).
	FaultPlan *faults.Plan
}

// DefaultConfig returns the paper-calibrated parameter set.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		LinkBandwidth: 25e9, // 200 Gbps
		EthOverhead:   24,

		LLCBytes: 6 << 20, // 6 of 12 ways for DDIO

		NICMemBandwidth: 48e9,
		NICMemLatency:   450 * sim.Nanosecond,
		NICMemBytes:     16 << 30,
		RxRingEntries:   1024,

		CC: transport.DefaultConfig(),
	}
}

// TotalCredits returns C_total = Size_LLC / Size_buf (paper Eq. 1).
func (c Config) TotalCredits() int {
	return int(c.LLCBytes / IOBufSize)
}

// Validate reports structurally invalid configurations (non-positive
// capacities and rates that would divide by zero or deadlock the model).
func (c Config) Validate() error {
	checks := []struct {
		ok   bool
		what string
	}{
		{c.LinkBandwidth > 0, "LinkBandwidth"},
		{c.LLCBytes > 0, "LLCBytes"},
		{c.LLCBytes >= IOBufSize, "LLCBytes >= IOBufSize"},
		{c.NICMemBandwidth > 0, "NICMemBandwidth"},
		{c.NICMemBytes > 0, "NICMemBytes"},
		{c.RxRingEntries > 0, "RxRingEntries"},
		{c.CC.RTT > 0, "CC.RTT"},
		{c.CC.MaxRate >= c.CC.MinRate, "CC.MaxRate >= CC.MinRate"},
		{c.HostBuffers >= 0, "HostBuffers"},
		{c.Cores >= 0, "Cores"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("iosys: invalid config: %s", ch.what)
		}
	}
	if c.Tenancy != nil {
		if err := c.Tenancy.Validate(c.LLCBytes); err != nil {
			return fmt.Errorf("iosys: invalid config: %w", err)
		}
	}
	if c.FaultPlan != nil {
		if err := c.FaultPlan.Validate(); err != nil {
			return fmt.Errorf("iosys: invalid config: %w", err)
		}
	}
	return nil
}

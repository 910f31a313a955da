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
	"ceio/internal/pcie"
	"ceio/internal/sim"
	"ceio/internal/tenant"
	"ceio/internal/transport"
)

// Config holds every model parameter. DefaultConfig matches the paper's
// testbed (§2.3, §6.1): two Xeon Silver 4309Y servers, BlueField-3 NICs,
// PCIe 5.0 x16, 200 Gbps links, 6 MB of LLC given to DDIO, 2 KB I/O
// buffers.
type Config struct {
	Seed int64

	// Network ingress.
	LinkBandwidth float64  // bytes/second of the NIC port (25e9 = 200 Gbps)
	EthOverhead   int      // per-packet wire overhead (preamble+IFG+FCS)
	MarkThreshold sim.Time // rx serialisation backlog that sets ECN marks
	// ClientOverhead is the constant client-side portion of an end-to-end
	// RPC measurement (sender processing, switch traversal, response
	// path); added to recorded latencies so they are comparable with the
	// client-observed numbers the paper reports.
	ClientOverhead sim.Time

	// Host memory hierarchy.
	LLCBytes      int64    // DDIO-accessible LLC region
	LLCHitLatency sim.Time // CPU load served from LLC
	MemBandwidth  float64  // effective memory-controller bandwidth (B/s)
	DRAMLatency   sim.Time // idle DRAM access latency
	IIOBytes      int64    // IIO staging buffer capacity
	UncoreBW      float64  // IIO->LLC commit bandwidth (DDIO write port)

	// PCIe.
	HostLink   pcie.LinkConfig
	DMACredits int

	// NIC.
	NICMemBandwidth float64  // on-NIC DRAM bandwidth
	NICMemLatency   sim.Time // on-NIC access incl. internal PCIe switch
	NICMemBytes     int64    // elastic buffer capacity (16 GB on BF-3)
	RxRingEntries   int      // per-flow hardware rx ring entries
	NICPipelineCost sim.Time // per-packet firmware/steering latency

	// CPU.
	IOBufSize    int      // I/O buffer (LLC management) granularity
	CPUBaseCost  sim.Time // per-packet driver/ring/descriptor handling
	PollInterval sim.Time // idle polling period
	BatchSize    int      // packets per poll batch
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
		Seed:           1,
		LinkBandwidth:  25e9, // 200 Gbps
		EthOverhead:    24,
		MarkThreshold:  1500 * sim.Nanosecond,
		ClientOverhead: 1000 * sim.Nanosecond,

		LLCBytes:      6 << 20, // 6 of 12 ways for DDIO
		LLCHitLatency: 18 * sim.Nanosecond,
		MemBandwidth:  60e9,
		DRAMLatency:   90 * sim.Nanosecond,
		IIOBytes:      256 << 10,
		UncoreBW:      80e9,

		HostLink:   pcie.DefaultLinkConfig(),
		DMACredits: 256,

		NICMemBandwidth: 48e9,
		NICMemLatency:   450 * sim.Nanosecond,
		NICMemBytes:     16 << 30,
		RxRingEntries:   1024,
		NICPipelineCost: 60 * sim.Nanosecond,

		IOBufSize:    2048,
		CPUBaseCost:  28 * sim.Nanosecond,
		PollInterval: 50 * sim.Nanosecond,
		BatchSize:    32,

		CC: transport.DefaultConfig(),
	}
}

// TotalCredits returns C_total = Size_LLC / Size_buf (paper Eq. 1).
func (c Config) TotalCredits() int {
	return int(c.LLCBytes / int64(c.IOBufSize))
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
		{c.IOBufSize > 0, "IOBufSize"},
		{c.LLCBytes >= int64(c.IOBufSize), "LLCBytes >= IOBufSize"},
		{c.MemBandwidth > 0, "MemBandwidth"},
		{c.UncoreBW > 0, "UncoreBW"},
		{c.IIOBytes > 0, "IIOBytes"},
		{c.NICMemBandwidth > 0, "NICMemBandwidth"},
		{c.NICMemBytes > 0, "NICMemBytes"},
		{c.RxRingEntries > 0, "RxRingEntries"},
		{c.BatchSize > 0, "BatchSize"},
		{c.PollInterval > 0, "PollInterval"},
		{c.HostLink.Bandwidth > 0, "HostLink.Bandwidth"},
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

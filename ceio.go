// Package ceio is a faithful, simulation-backed reproduction of CEIO
// (SIGCOMM 2025): a cache-efficient network I/O architecture for NIC-CPU
// data paths. It implements CEIO's NIC-resident I/O manager — proactive,
// credit-based flow control (Algorithm 1) plus elastic on-NIC buffering
// with an order-preserving software ring and asynchronous slow-path DMA —
// together with the complete substrate it runs on (a DDIO-modelled LLC,
// DRAM and memory-controller contention, PCIe DMA with TLP framing and
// bounded credits, an RMT-style steering engine, DCTCP congestion
// control, and per-core polling drivers) and the three comparison
// architectures of the paper's evaluation: the unmanaged DDIO baseline,
// HostCC's reactive host congestion control, and ShRing's fixed shared
// receive ring.
//
// The package exposes a small façade over the internal packages:
//
//	sim := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchCEIO)
//	sim.AddFlow(ceio.KVFlow(1, 144))
//	sim.RunFor(20 * ceio.Millisecond)
//	fmt.Println(sim.Snapshot())
//
// Everything is deterministic for a fixed Config.Seed. See DESIGN.md for
// the modelling rationale and EXPERIMENTS.md for the paper-vs-measured
// record of every reproduced table and figure.
package ceio

import (
	"fmt"
	"strconv"

	"ceio/internal/core"
	"ceio/internal/dataplane"
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/rdca"
	"ceio/internal/sim"
	"ceio/internal/tenant"
	"ceio/internal/workload"
)

// Duration is simulated time in nanoseconds.
type Duration = sim.Time

// Convenient duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Config holds every parameter of the simulated machine: link speed,
// LLC/DDIO geometry, PCIe, on-NIC memory, CPU cost model, and congestion
// control. See DefaultConfig for the paper-calibrated values.
type Config = iosys.Config

// FlowSpec declares a network flow (kind, packet size, message size,
// CPU cost model).
type FlowSpec = iosys.FlowSpec

// Flow is the runtime state and metrics of an added flow.
type Flow = iosys.Flow

// CostModel describes per-packet application work for CPU-involved flows.
type CostModel = iosys.CostModel

// Packet is the descriptor visible to delivery observers.
type Packet = pkt.Packet

// Flow kinds (the paper's two accelerated flow classes, §2.1).
const (
	CPUInvolved = iosys.CPUInvolved // NIC -> LLC -> CPU (RPC, NFV, DB)
	CPUBypass   = iosys.CPUBypass   // NIC -> LLC -> DRAM (DFS, bulk RDMA)
)

// CEIOOptions tune the CEIO datapath (credit pool, read-ahead, fault
// timers, and the ablation switches of Table 4). Algorithm 1's scan,
// re-activation, low-water and steering-retry parameters are fixed
// constants of internal/core (core.ScanPeriod, core.ReactivateQuota,
// core.SlowMarkDepth, core.SteerRetryLimit, ...).
type CEIOOptions = core.Options

// DefaultCEIOOptions returns the paper-faithful CEIO configuration.
func DefaultCEIOOptions() CEIOOptions { return core.DefaultOptions() }

// DefaultConfig returns the testbed configuration of §2.3/§6.1:
// 200 Gbps links, 6 MB of LLC for DDIO, 2 KB I/O buffers, PCIe 5.0 x16,
// BlueField-3-class on-NIC memory.
func DefaultConfig() Config { return iosys.DefaultConfig() }

// Multi-tenant DDIO partitioning (internal/tenant): set Config.Tenancy
// to carve the DDIO region into per-tenant LLC partitions and tag flows
// with FlowSpec.Tenant. TenantDynamic arms the IOCA-style repartitioning
// controller.
type (
	// TenancyConfig declares a machine's tenants and partitioning mode.
	TenancyConfig = tenant.Config
	// TenantSpec declares one tenant and its way quota.
	TenantSpec = tenant.Spec
	// TenantMode selects shared, static, or dynamic partition management.
	TenantMode = tenant.Mode
)

// Tenant partitioning modes.
const (
	TenantShared  = tenant.ModeShared
	TenantStatic  = tenant.ModeStatic
	TenantDynamic = tenant.ModeDynamic
)

// Dataplane module pipeline (internal/dataplane): set FlowSpec.Pipeline
// to an ordered chain of module names and the flow's per-packet work
// becomes the chain's cycle cost plus its state-table LLC accesses,
// replacing CostModel.PerPacket (see DESIGN.md "Dataplane pipeline").
type (
	// ModuleSpec declares one dataplane module type (name, cycles,
	// state working set).
	ModuleSpec = dataplane.Spec
)

// DataplaneModules returns the valid FlowSpec.Pipeline module names.
func DataplaneModules() []string { return dataplane.Names() }

// DataplaneSpecs returns the built-in module catalog.
func DataplaneSpecs() []ModuleSpec { return dataplane.Specs() }

// ValidatePipeline checks a module chain for unknown or duplicate
// names (the same validation AddFlow performs).
func ValidatePipeline(names []string) error { return dataplane.ValidateChain(names) }

// ParseTenantSpecs parses a CLI tenant layout like "kv=2,bulk=3".
func ParseTenantSpecs(s string) ([]TenantSpec, error) { return tenant.ParseSpecs(s) }

// ParseTenantMode parses a CLI mode name (shared|static|dynamic).
func ParseTenantMode(s string) (TenantMode, error) { return tenant.ParseMode(s) }

// Architecture selects the I/O datapath under test.
type Architecture string

// The four architectures of the paper's evaluation, plus RDCA — the
// receiver-driven cache-residency contender from the RDCA line of work
// (PAPERS.md): bounded in-flight window sized to the flow's LLC
// partition with aggressive buffer recycling, no elastic on-NIC buffer.
const (
	ArchBaseline Architecture = Architecture(workload.MethodBaseline)
	ArchHostCC   Architecture = Architecture(workload.MethodHostCC)
	ArchShRing   Architecture = Architecture(workload.MethodShRing)
	ArchCEIO     Architecture = Architecture(workload.MethodCEIO)
	ArchRDCA     Architecture = Architecture(workload.MethodRDCA)
)

// RDCAOptions tune the RDCA datapath (residency target and fixed-window
// sweeps). The window controller's bounds, step and period are fixed
// constants of internal/rdca (rdca.InitialWindow, rdca.MinWindow,
// rdca.GrowStep, rdca.AdjustPeriod, ...).
type RDCAOptions = rdca.Options

// DefaultRDCAOptions returns the receiver-driven RDCA defaults.
func DefaultRDCAOptions() RDCAOptions { return rdca.DefaultOptions() }

// Simulator drives one simulated receiver host.
type Simulator struct {
	m  *iosys.Machine
	dp iosys.Datapath
}

// NewSimulator builds a machine running the given architecture. Invalid
// configurations panic; library consumers embedding the simulator should
// prefer NewSimulatorE.
func NewSimulator(cfg Config, arch Architecture) *Simulator {
	s, err := NewSimulatorE(cfg, arch)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSimulatorE is NewSimulator with invalid configurations, and
// architectures outside the registry, reported as errors instead of
// panics.
func NewSimulatorE(cfg Config, arch Architecture) (*Simulator, error) {
	method, err := workload.ParseMethod(string(arch))
	if err != nil {
		return nil, fmt.Errorf("ceio: %w", err)
	}
	return newSimulator(cfg, workload.NewDatapath(method))
}

// NewCEIOSimulator builds a machine running CEIO with explicit options
// (ablations, forced slow path, custom credit pools). Invalid
// configurations panic; see NewCEIOSimulatorE.
func NewCEIOSimulator(cfg Config, opts CEIOOptions) *Simulator {
	s, err := NewCEIOSimulatorE(cfg, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// NewCEIOSimulatorE is NewCEIOSimulator with invalid configurations and
// out-of-range options reported as errors instead of panics.
func NewCEIOSimulatorE(cfg Config, opts CEIOOptions) (*Simulator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return newSimulator(cfg, core.New(opts))
}

// NewRDCASimulator builds a machine running the RDCA datapath with
// explicit options (fixed-window sweeps, residency target). Invalid
// configurations panic; see NewRDCASimulatorE.
func NewRDCASimulator(cfg Config, opts RDCAOptions) *Simulator {
	s, err := NewRDCASimulatorE(cfg, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// NewRDCASimulatorE is NewRDCASimulator with invalid configurations and
// out-of-range options reported as errors instead of panics.
func NewRDCASimulatorE(cfg Config, opts RDCAOptions) (*Simulator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return newSimulator(cfg, rdca.New(opts))
}

// newSimulator builds the machine around an already constructed datapath.
func newSimulator(cfg Config, dp iosys.Datapath) (*Simulator, error) {
	m, err := iosys.NewMachineE(cfg, dp)
	if err != nil {
		return nil, err
	}
	return &Simulator{m: m, dp: dp}, nil
}

// RDCA returns the RDCA datapath when this simulator runs one, else nil.
func (s *Simulator) RDCA() *rdca.RDCA {
	if d, ok := s.dp.(*rdca.RDCA); ok {
		return d
	}
	return nil
}

// Machine exposes the underlying machine for advanced inspection
// (LLC counters, PCIe utilisation, steering table).
func (s *Simulator) Machine() *iosys.Machine { return s.m }

// CEIO returns the CEIO datapath when this simulator runs one, else nil.
func (s *Simulator) CEIO() *core.CEIO {
	if c, ok := s.dp.(*core.CEIO); ok {
		return c
	}
	return nil
}

// AddFlow establishes a flow and returns its runtime handle. Invalid
// specs (duplicate IDs, non-positive packet sizes) panic; see AddFlowE.
func (s *Simulator) AddFlow(spec FlowSpec) *Flow { return s.m.AddFlow(spec) }

// AddFlowE is AddFlow with invalid specs reported as errors.
func (s *Simulator) AddFlowE(spec FlowSpec) (*Flow, error) { return s.m.AddFlowE(spec) }

// RemoveFlow tears a flow down (in-flight packets drain).
func (s *Simulator) RemoveFlow(id int) { s.m.RemoveFlow(id) }

// PauseFlow and ResumeFlow gate a flow's generator without teardown.
func (s *Simulator) PauseFlow(id int)  { s.m.PauseFlow(id) }
func (s *Simulator) ResumeFlow(id int) { s.m.ResumeFlow(id) }

// OnDeliver registers an observer invoked for every packet handed to the
// application layer.
func (s *Simulator) OnDeliver(fn func(*Flow, *Packet)) { s.m.OnDeliver = fn }

// At schedules fn at an absolute simulated time (scenario scripting).
func (s *Simulator) At(t Duration, fn func()) { s.m.Eng.At(t, fn) }

// RunFor advances the simulation by d.
func (s *Simulator) RunFor(d Duration) { s.m.Run(s.m.Eng.Now() + d) }

// Now returns the current simulated time.
func (s *Simulator) Now() Duration { return s.m.Eng.Now() }

// ResetMetrics restarts throughput meters and cache counters, so a
// steady-state window can be measured after warm-up.
func (s *Simulator) ResetMetrics() { s.m.ResetWindow() }

// Snapshot summarises the machine's aggregate metrics.
type Snapshot struct {
	Arch          string
	Time          Duration
	DeliveredPkts uint64
	TotalMpps     float64
	TotalGbps     float64
	InvolvedMpps  float64
	BypassGbps    float64
	LLCMissRate   float64
	// IIOOccupancy is the bytes currently staged in the IIO buffer ahead
	// of the LLC commit port (the host-congestion gauge HostCC watches).
	IIOOccupancy int64
	Drops        uint64
	// Tenants holds per-tenant metrics when the machine is tenanted
	// (Config.Tenancy set), in registry order; nil otherwise.
	Tenants []TenantSnapshot
	// Cores holds per-core metrics when the machine is multi-queue
	// (Config.Cores > 0), in queue order; nil otherwise.
	Cores []CoreSnapshot
	// Modules holds per-module dataplane pipeline metrics when any flow
	// declares FlowSpec.Pipeline, in instantiation order; nil otherwise.
	Modules []ModuleSnapshot
}

// TenantSnapshot is one tenant's slice of a Snapshot.
type TenantSnapshot struct {
	ID          string
	Ways        int // current way allocation (0 in shared mode)
	LLCMissRate float64
	Mpps        float64
	Gbps        float64
}

// CoreSnapshot is one rx-queue core's slice of a Snapshot on a
// multi-queue machine.
type CoreSnapshot struct {
	Queue       int
	Flows       int // CPU-involved flows currently assigned to the core
	Processed   uint64
	BusyRatio   float64
	LLCMissRate float64 // consume-side misses attributed to this core
	CreditShare int     // CEIO's carved slice of C_total (0 on other arches)
}

// ModuleSnapshot is one dataplane module's slice of a Snapshot.
type ModuleSnapshot struct {
	Name            string
	Flows           int // flows whose pipelines include the module
	Packets         uint64
	StateMissRate   float64 // state touches refilled from DRAM / all touches
	ResidentBytes   int64   // state bytes currently in the LLC
	WorkingSetBytes int64   // fixed footprint plus per-flow entries
}

// Snapshot captures the current aggregate metrics. Every value is read
// from the machine's telemetry registry — the same source of truth the
// exporters and experiment tables use — so a snapshot can never drift
// from what `-metrics-out` reports.
func (s *Simulator) Snapshot() Snapshot {
	reg := s.m.Reg
	sn := Snapshot{
		Arch:          s.dp.Name(),
		Time:          s.m.Eng.Now(),
		DeliveredPkts: uint64(reg.Value("iosys.delivered.packets_total")),
		TotalMpps:     reg.Value("iosys.delivered.rate_mpps"),
		TotalGbps:     reg.Value("iosys.delivered.rate_gbps"),
		InvolvedMpps:  reg.Value("iosys.involved.rate_mpps"),
		BypassGbps:    reg.Value("iosys.bypass.rate_gbps"),
		LLCMissRate:   reg.Value("cache.llc.miss_ratio"),
		IIOOccupancy:  int64(reg.Value("cache.iio.occupancy_bytes")),
		Drops:         uint64(reg.Value("iosys.drops_total")),
	}
	if s.m.Tenants != nil {
		for _, t := range s.m.Tenants.Tenants() {
			lbl := MetricLabel{Key: "tenant", Value: t.ID}
			sn.Tenants = append(sn.Tenants, TenantSnapshot{
				ID:          t.ID,
				Ways:        int(reg.Value("tenant.ways_count", lbl)),
				LLCMissRate: reg.Value("tenant.llc.miss_ratio", lbl),
				Mpps:        reg.Value("tenant.delivered.rate_mpps", lbl),
				Gbps:        reg.Value("tenant.delivered.rate_gbps", lbl),
			})
		}
	}
	for q := 0; q < s.m.Cfg.Cores; q++ {
		lbl := MetricLabel{Key: "core", Value: strconv.Itoa(q)}
		sn.Cores = append(sn.Cores, CoreSnapshot{
			Queue:       q,
			Flows:       int(reg.Value("iosys.core.flows.active_count", lbl)),
			Processed:   uint64(reg.Value("iosys.core.processed_total", lbl)),
			BusyRatio:   reg.Value("iosys.core.busy_ratio", lbl),
			LLCMissRate: reg.Value("cache.llc.core.miss_ratio", lbl),
			// Registered by the CEIO datapath only; Value reads 0 elsewhere.
			CreditShare: int(reg.Value("core.ceio.credits.share_count", lbl)),
		})
	}
	if s.m.Pipes != nil {
		for _, mod := range s.m.Pipes.Modules() {
			lbl := MetricLabel{Key: "module", Value: mod.Name}
			sn.Modules = append(sn.Modules, ModuleSnapshot{
				Name:            mod.Name,
				Flows:           int(reg.Value("dataplane.module.flows.active_count", lbl)),
				Packets:         uint64(reg.Value("dataplane.module.packets_total", lbl)),
				StateMissRate:   reg.Value("dataplane.module.state.miss_ratio", lbl),
				ResidentBytes:   int64(reg.Value("dataplane.module.state.resident_bytes", lbl)),
				WorkingSetBytes: int64(reg.Value("dataplane.module.working_set_bytes", lbl)),
			})
		}
	}
	return sn
}

// String renders a one-line summary (plus one line per tenant when the
// machine is tenanted).
func (sn Snapshot) String() string {
	s := fmt.Sprintf("[%s @ %v] %.2f Mpps / %.2f Gbps (involved %.2f Mpps, bypass %.2f Gbps), LLC miss %.1f%%, IIO occ %dB, drops %d",
		sn.Arch, sn.Time, sn.TotalMpps, sn.TotalGbps, sn.InvolvedMpps, sn.BypassGbps, sn.LLCMissRate*100, sn.IIOOccupancy, sn.Drops)
	for _, t := range sn.Tenants {
		s += fmt.Sprintf("\n  tenant %-8s ways=%d  %.2f Mpps / %.2f Gbps, LLC miss %.1f%%",
			t.ID, t.Ways, t.Mpps, t.Gbps, t.LLCMissRate*100)
	}
	for _, c := range sn.Cores {
		s += fmt.Sprintf("\n  core %d  flows=%d  processed=%d  busy %.1f%%, LLC miss %.1f%%",
			c.Queue, c.Flows, c.Processed, c.BusyRatio*100, c.LLCMissRate*100)
		if c.CreditShare > 0 {
			s += fmt.Sprintf(", credit share %d", c.CreditShare)
		}
	}
	for _, md := range sn.Modules {
		s += fmt.Sprintf("\n  module %-10s flows=%d  pkts=%d  state miss %.1f%%, resident %dKiB of %dKiB",
			md.Name, md.Flows, md.Packets, md.StateMissRate*100, md.ResidentBytes>>10, md.WorkingSetBytes>>10)
	}
	return s
}

// KVFlow returns an eRPC-style key-value flow (CPU-involved, zero-copy;
// pktSize 0 selects the paper's 144B requests).
func KVFlow(id, pktSize int) FlowSpec { return workload.ERPCKV(id, pktSize, workload.DPDK) }

// FileTransferFlow returns a LineFS-style DFS write flow (CPU-bypass;
// zero values select 1024B packets in 1024-packet chunks).
func FileTransferFlow(id, pktSize, chunkPkts int) FlowSpec {
	return workload.LineFS(id, pktSize, chunkPkts)
}

// EchoFlow returns a dperf-style echo flow (CPU-involved; a zero msgSize
// selects 512B messages).
func EchoFlow(id, msgSize int) FlowSpec { return workload.Echo(id, msgSize) }

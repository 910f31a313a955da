package iosys

import (
	"strconv"

	"ceio/internal/dataplane"
	"ceio/internal/telemetry"
)

// MetricSource is implemented by datapaths (and other attachments) that
// export their own counters into the machine's telemetry registry. It is
// the metrics analogue of FaultAware: NewMachineE probes for it after
// Attach, so a datapath's series appear alongside the machine's without
// the machine knowing any architecture's internals.
type MetricSource interface {
	RegisterMetrics(reg *telemetry.Registry)
}

// registerMetrics publishes every mechanism-layer component of the
// machine into its telemetry registry under the documented namespace
// (see OBSERVABILITY.md). All readers are closures over live component
// state: nothing is copied, counted twice, or touched on the hot path.
func (m *Machine) registerMetrics() {
	reg := m.Reg

	reg.Counter("sim.events_total", "Simulation events processed by the engine.",
		func() uint64 { return m.Eng.Processed })

	// Timing-wheel engine internals: dispatch throughput (per simulated
	// second, so samples are deterministic across hosts and -parallel
	// levels), wheel occupancy, and cascade churn.
	eng := m.Eng
	reg.Gauge("engine.events.rate_meps", "Events dispatched per simulated second, in millions.",
		func() float64 {
			if eng.Now() <= 0 {
				return 0
			}
			return float64(eng.Processed) * 1e3 / float64(eng.Now())
		})
	reg.Counter("engine.cascades_total", "Slot cascades performed by the timing wheel (batch re-files from coarse to finer levels).",
		func() uint64 { return eng.Cascades })
	reg.Gauge("engine.wheel.pending_count", "Events scheduled and not yet dispatched (all wheel levels plus overflow).",
		func() float64 { return float64(eng.Pending()) })
	reg.Gauge("engine.wheel.overflow_count", "Pending events beyond the wheel horizon on the far-future overflow list.",
		func() float64 { return float64(eng.OverflowPending()) })
	reg.Gauge("engine.pool.free_count", "Recycled event records available before the pool grows another slab.",
		func() float64 { return float64(eng.PoolFree()) })

	// Last-level cache: the DDIO region the paper's whole argument is
	// about (§2.2). Occupancy + miss ratio are the curves Figures 4/10
	// are read from.
	llc := m.LLC
	reg.Counter("cache.llc.hits_total", "LLC lookups served from the cache.",
		func() uint64 { return llc.Hits })
	reg.Counter("cache.llc.misses_total", "LLC lookups that fell through to DRAM.",
		func() uint64 { return llc.Misses })
	reg.Counter("cache.llc.evictions_total", "I/O buffers evicted from the DDIO region to DRAM.",
		func() uint64 { return llc.Evictions })
	reg.Counter("cache.llc.insertions_total", "DDIO writes admitted into the LLC.",
		func() uint64 { return llc.Insertions })
	reg.Gauge("cache.llc.miss_ratio", "Window LLC miss ratio, misses/(hits+misses).",
		llc.MissRate)
	reg.Gauge("cache.llc.capacity_bytes", "Configured DDIO-region capacity.",
		func() float64 { return float64(llc.Capacity()) })
	reg.Gauge("cache.llc.resident_count", "I/O buffers currently resident in the DDIO region.",
		func() float64 { return float64(llc.Len()) })
	const ddioHelp = "Bytes of in-flight I/O data resident in the DDIO region (per tenant partition when labelled)."
	reg.Gauge("cache.llc.ddio.occupancy_bytes", ddioHelp,
		func() float64 { return float64(llc.Occupancy()) })

	// IIO staging buffer: HostCC's congestion signal (§2.3).
	iio := m.IIO
	reg.Gauge("cache.iio.occupancy_bytes", "Bytes staged in the IIO buffer between PCIe and the cache.",
		func() float64 { return float64(iio.Occupancy()) })
	reg.Gauge("cache.iio.capacity_bytes", "Configured IIO staging-buffer capacity.",
		func() float64 { return float64(iio.Capacity()) })
	reg.Gauge("cache.iio.peak_bytes", "High-water mark of IIO occupancy this run.",
		func() float64 { return float64(iio.PeakBytes) })
	reg.Counter("cache.iio.enqueued_total", "DMA writes admitted into the IIO buffer.",
		func() uint64 { return iio.Enqueued })
	reg.Counter("cache.iio.rejects_total", "DMA writes refused by a full IIO buffer (backpressure).",
		func() uint64 { return iio.Dropped })

	// DRAM behind the LLC: the shared memory-controller bandwidth both
	// miss fetches and bypass bulk moves contend for (§2.2).
	mem := m.Mem
	reg.Counter("cache.mem.miss_fetches_total", "CPU fetches of I/O data that missed the LLC.",
		func() uint64 { return mem.MissFetches })
	reg.Counter("cache.mem.writebacks_total", "Dirty I/O buffers written back from LLC to DRAM.",
		func() uint64 { return mem.Writebacks })
	reg.Counter("cache.mem.bulk_moves_total", "CPU-bypass bulk transfers through the memory controller.",
		func() uint64 { return mem.BulkMoves })
	reg.Gauge("cache.mem.queue_delay_ns", "Current memory-controller queueing delay.",
		func() float64 { return float64(mem.QueueDelay()) })

	// PCIe: DMA engine counters and link utilisation.
	dma := m.DMA
	reg.Counter("pcie.dma.writes_total", "DMA writes issued toward host memory.",
		func() uint64 { return dma.Writes })
	reg.Counter("pcie.dma.reads_total", "Slow-path DMA reads issued from on-NIC memory.",
		func() uint64 { return dma.Reads })
	reg.Counter("pcie.dma.credit_stalls_total", "DMA writes deferred waiting for a write credit.",
		func() uint64 { return dma.CreditStalls })
	reg.Counter("pcie.dma.read_stalls_total", "DMA reads deferred waiting for a read tag.",
		func() uint64 { return dma.ReadStalls })
	reg.Counter("pcie.dma.iio_backpressure_total", "DMA writes deferred by a full IIO buffer.",
		func() uint64 { return dma.IIOBackpressure })
	reg.Counter("pcie.dma.fault_stalls_total", "DMA operations deferred by injected stall faults.",
		func() uint64 { return dma.FaultStalls })
	reg.Gauge("pcie.dma.outstanding_writes_count", "Write credits currently in use.",
		func() float64 { return float64(dma.OutstandingWrites()) })
	reg.Gauge("pcie.dma.outstanding_reads_count", "Read tags currently in use.",
		func() float64 { return float64(dma.OutstandingReads()) })
	reg.Gauge("pcie.uplink.utilization_ratio", "NIC-to-host PCIe link utilisation.",
		m.ToHost.Utilization)
	reg.Gauge("pcie.downlink.utilization_ratio", "Host-to-NIC PCIe link utilisation.",
		m.ToNIC.Utilization)

	// Machine-level delivery accounting: the throughput/latency numbers
	// every experiment table reports.
	reg.Counter("iosys.delivered.packets_total", "Packets handed to the application.",
		func() uint64 { return m.Delivered.Packets })
	reg.Counter("iosys.delivered.bytes_total", "Payload bytes handed to the application.",
		func() uint64 { return m.Delivered.Bytes })
	reg.Gauge("iosys.delivered.rate_mpps", "Window delivery rate, million packets/s.",
		func() float64 { return m.Delivered.Mpps(m.Eng.Now()) })
	reg.Gauge("iosys.delivered.rate_gbps", "Window delivery goodput, Gbit/s.",
		func() float64 { return m.Delivered.Gbps(m.Eng.Now()) })
	reg.Counter("iosys.involved.packets_total", "CPU-involved packets delivered.",
		func() uint64 { return m.InvolvedMeter.Packets })
	reg.Gauge("iosys.involved.rate_mpps", "CPU-involved delivery rate, million packets/s.",
		func() float64 { return m.InvolvedMeter.Mpps(m.Eng.Now()) })
	reg.Counter("iosys.bypass.bytes_total", "CPU-bypass payload bytes delivered.",
		func() uint64 { return m.BypassMeter.Bytes })
	reg.Gauge("iosys.bypass.rate_gbps", "CPU-bypass delivery goodput, Gbit/s.",
		func() float64 { return m.BypassMeter.Gbps(m.Eng.Now()) })
	reg.Counter("iosys.drops_total", "Packets dropped anywhere in the datapath.",
		func() uint64 { return m.TotalDrops })
	reg.Counter("iosys.hostbuf.drops_total", "Packets dropped for lack of a pooled host I/O buffer.",
		func() uint64 { return m.NoHostBufDrops })
	reg.Counter("iosys.faults.wire_drops_total", "Frames lost to injected wire-drop faults.",
		func() uint64 { return m.FaultDrops })
	reg.Counter("iosys.faults.wire_corrupts_total", "Frames discarded after injected corruption (FCS fail).",
		func() uint64 { return m.FaultCorrupts })
	reg.Gauge("iosys.nicmem.used_bytes", "On-NIC elastic-buffer bytes in use.",
		func() float64 { return float64(m.NICMemUsed) })
	reg.Gauge("iosys.flows.active_count", "Established flows.",
		func() float64 { return float64(len(m.Flows)) })
	reg.Gauge("iosys.flows.involved_count", "Established CPU-involved flows.",
		func() float64 { return float64(m.InvolvedFlowCount()) })
	reg.Histogram("iosys.delivery.latency_ns", "Packet latency from NIC arrival to application delivery.",
		&m.Latency)

	// Tenancy: per-tenant partition state and accounting (the IOCA-style
	// repartitioning story; the recovery in the dynamic mode is read off
	// these curves).
	if m.Tenants != nil {
		for _, t := range m.Tenants.Tenants() {
			t := t
			lbl := telemetry.L("tenant", t.ID)
			reg.Gauge("cache.llc.ddio.occupancy_bytes", ddioHelp,
				func() float64 { return float64(llc.PartOccupancy(t.Part)) }, lbl)
			reg.Gauge("tenant.ways_count", "LLC ways currently allocated to the tenant.",
				func() float64 { return float64(t.Ways) }, lbl)
			reg.Gauge("tenant.flows.active_count", "The tenant's established flows.",
				func() float64 { return float64(t.Flows) }, lbl)
			reg.Counter("tenant.llc.hits_total", "The tenant's LLC hits.",
				func() uint64 { return t.Hits }, lbl)
			reg.Counter("tenant.llc.misses_total", "The tenant's LLC misses.",
				func() uint64 { return t.Misses }, lbl)
			reg.Gauge("tenant.llc.miss_ratio", "The tenant's window LLC miss ratio.",
				t.MissRate, lbl)
			reg.Gauge("tenant.delivered.rate_mpps", "The tenant's delivery rate, million packets/s.",
				func() float64 { return t.Delivered.Mpps(m.Eng.Now()) }, lbl)
			reg.Gauge("tenant.delivered.rate_gbps", "The tenant's delivery goodput, Gbit/s.",
				func() float64 { return t.Delivered.Gbps(m.Eng.Now()) }, lbl)
		}
		reg.Gauge("tenant.shared.ways_count", "LLC ways in the shared pool.",
			func() float64 { return float64(m.Tenants.SharedWays()) })
		reg.Counter("tenant.ways_moved_total", "Way reassignments performed by the dynamic controller.",
			func() uint64 { return m.Tenants.WaysMoved })
	}

	// Poll-loop counters. A multi-queue machine labels them per core
	// below; with Cores == 0 every CPU-involved flow has a core of its
	// own, and one unlabelled machine-wide series sums them all, retired
	// cores included, at read time.
	const (
		pollsHelp      = "Poll-loop iterations run by the core."
		emptyPollsHelp = "Poll-loop iterations that found no packets."
		gatedPollsHelp = "Empty polls answered without calling the datapath (core disarmed, no doorbell since its last empty round)."
	)
	if m.RSS == nil {
		reg.Counter("iosys.core.polls_total", pollsHelp,
			func() uint64 { return m.pollTotals().Polls })
		reg.Counter("iosys.core.empty_polls_total", emptyPollsHelp,
			func() uint64 { return m.pollTotals().EmptyPolls })
		reg.Counter("iosys.core.gated_polls_total", gatedPollsHelp,
			func() uint64 { return m.pollTotals().GatedPolls })
	}

	// Multi-queue rx path: RSS dispatch counters plus one series set per
	// rx-queue core, labelled core="<queue index>". The per-core LLC split
	// is consume-side attribution — which core paid for each read — so
	// cross-core cache contention is visible per core, not just in the
	// machine aggregate.
	if m.RSS != nil {
		reg.Counter("iosys.rss.hashed_flows_total", "Flows placed onto rx queues by the RSS hash.",
			func() uint64 { return m.RSS.Hashed })
		reg.Counter("iosys.rss.pinned_flows_total", "Flows explicitly pinned to an rx queue (FlowSpec.Queue).",
			func() uint64 { return m.RSS.Pinned })
		for q, c := range m.queues {
			q, c := q, c
			lbl := telemetry.L("core", strconv.Itoa(q))
			reg.Counter("iosys.core.polls_total", pollsHelp,
				func() uint64 { return c.Polls }, lbl)
			reg.Counter("iosys.core.empty_polls_total", emptyPollsHelp,
				func() uint64 { return c.EmptyPolls }, lbl)
			reg.Counter("iosys.core.gated_polls_total", gatedPollsHelp,
				func() uint64 { return c.GatedPolls }, lbl)
			reg.Counter("iosys.core.processed_total", "Packets processed by the core.",
				func() uint64 { return c.Processed }, lbl)
			reg.Gauge("iosys.core.busy_ratio", "Fraction of wall time the core spent processing packets.",
				func() float64 { return c.Utilization(m.Eng.Now()) }, lbl)
			reg.Gauge("iosys.core.flows.active_count", "CPU-involved flows currently assigned to the core.",
				func() float64 { return float64(c.FlowCount()) }, lbl)
			reg.Counter("cache.llc.core.hits_total", "LLC lookups by this core's flows served from the cache.",
				func() uint64 { return llc.QueueStats(q).Hits }, lbl)
			reg.Counter("cache.llc.core.misses_total", "LLC lookups by this core's flows that fell through to DRAM.",
				func() uint64 { return llc.QueueStats(q).Misses }, lbl)
			reg.Gauge("cache.llc.core.miss_ratio", "The core's window LLC miss ratio.",
				func() float64 { return llc.QueueStats(q).MissRate() }, lbl)
		}
	}
}

// registerPipelineMetrics publishes the dataplane engine's aggregate
// series. Called once, when the first pipelined flow instantiates the
// engine; the sampler tolerates late registration (new series join at
// the current tick).
func (m *Machine) registerPipelineMetrics() {
	e := m.Pipes
	m.Reg.Counter("dataplane.busy_ns_total", "Nanoseconds of application service time charged through module pipelines.",
		func() uint64 { return uint64(e.TotalBusy) })
	m.Reg.Gauge("dataplane.state.resident_bytes", "Module state bytes currently resident in the LLC, all modules.",
		func() float64 { return float64(e.ResidentBytes()) })
	m.Reg.Gauge("dataplane.state.miss_ratio", "Window state miss ratio across all modules.",
		e.MissRate)
	m.Reg.Gauge("dataplane.modules.active_count", "Dataplane modules instantiated on this machine.",
		func() float64 { return float64(len(e.Modules())) })
}

// registerModuleMetrics publishes one module's series, labelled
// module="<name>", when a flow's chain instantiates it.
func (m *Machine) registerModuleMetrics(mod *dataplane.Module) {
	reg := m.Reg
	lbl := telemetry.L("module", mod.Name)
	reg.Counter("dataplane.module.packets_total", "Packets processed by the module.",
		func() uint64 { return mod.Packets }, lbl)
	reg.Counter("dataplane.module.busy_ns_total", "Service time charged by the module: cycles plus state-access stalls.",
		func() uint64 { return uint64(mod.Busy) }, lbl)
	reg.Counter("dataplane.module.state.hits_total", "Module state touches served from the LLC.",
		func() uint64 { return mod.Hits }, lbl)
	reg.Counter("dataplane.module.state.misses_total", "Module state touches refilled from DRAM.",
		func() uint64 { return mod.Misses }, lbl)
	reg.Gauge("dataplane.module.state.miss_ratio", "The module's window state miss ratio.",
		mod.MissRate, lbl)
	reg.Gauge("dataplane.module.state.resident_bytes", "The module's state bytes currently resident in the LLC.",
		func() float64 { return float64(mod.Resident) }, lbl)
	reg.Gauge("dataplane.module.working_set_bytes", "The module's current state working set (fixed footprint plus per-flow entries).",
		func() float64 { return float64(mod.WorkingSetBytes()) }, lbl)
	reg.Gauge("dataplane.module.flows.active_count", "Flows whose pipelines include the module.",
		func() float64 { return float64(mod.Flows()) }, lbl)
}

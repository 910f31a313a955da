package iosys

import (
	"fmt"

	"ceio/internal/bufpool"
	"ceio/internal/cache"
	"ceio/internal/dataplane"
	"ceio/internal/faults"
	"ceio/internal/flowsteer"
	"ceio/internal/pcie"
	"ceio/internal/pkt"
	"ceio/internal/sim"
	"ceio/internal/stats"
	"ceio/internal/telemetry"
	"ceio/internal/tenant"
	"ceio/internal/trace"
	"ceio/internal/transport"
)

// Datapath is the I/O architecture under test. Exactly one datapath is
// attached to a Machine; it owns the policy layer (what happens to a
// packet at the NIC entrance, how drivers hand packets to cores, when
// credits move) while the Machine owns the mechanism layer (links, DMA,
// caches, CPU cost model, congestion control plumbing).
type Datapath interface {
	// Name identifies the architecture in reports ("CEIO", "HostCC", ...).
	Name() string
	// Attach wires the datapath to its machine; called once by NewMachine.
	Attach(m *Machine)
	// FlowAdded/FlowRemoved track connection establishment and teardown.
	// No core polls a removed flow, so FlowRemoved drops (Machine.Drop)
	// every packet of the flow the datapath holds that nothing else will
	// finish, and Landed drops the packets that land after it.
	FlowAdded(f *Flow)
	FlowRemoved(f *Flow)
	// Ingress receives a packet at the NIC entrance, after wire
	// serialisation and the NIC pipeline, and decides its fate.
	Ingress(f *Flow, p *pkt.Packet)
	// Landed runs when a DMA write started by Machine.DMAToHost has
	// committed p's lines into the LLC: the datapath's one
	// DMA-completion hook.
	Landed(f *Flow, p *pkt.Packet)
	// Poll implements the driver receive path for a CPU-involved flow:
	// append up to max deliverable packets, in order, to out and return
	// the extended slice. The caller owns out (the polling core reuses
	// one buffer across polls), so a poll allocates nothing.
	//
	// A round of polls that returns nothing disarms the flow's core,
	// which then skips Poll until Machine.Doorbell re-arms it; every
	// Landed rings it. A datapath whose Poll can make progress without a
	// landing (issue a read, flush a queue, switch paths) must ring
	// Doorbell whenever that becomes possible, and from Poll itself
	// while it remains so. A flow whose poll has no side effect until
	// such a ring (CEIO's quiescent and paused flows) needs no ring from
	// Poll.
	Poll(f *Flow, out []*pkt.Packet, max int) []*pkt.Packet
	// OnDelivered runs after the application finished processing p
	// (credit release hooks, ring head advancement).
	OnDelivered(f *Flow, p *pkt.Packet)
}

// Machine is one simulated receiver host plus its NIC, carrying any
// number of flows over a single 200 Gbps port.
type Machine struct {
	Eng *sim.Engine
	Cfg Config

	// Memory hierarchy.
	LLC    *cache.LLC
	Mem    *cache.Memory
	IIO    *cache.IIO
	Uncore *sim.Server // IIO -> LLC commit port

	// Interconnect.
	ToHost *pcie.Link
	ToNIC  *pcie.Link
	DMA    *pcie.Engine

	// NIC.
	RxWire *sim.Server // 200 Gbps ingress serialisation
	NICMem *sim.Server // on-NIC DRAM
	Steer  *flowsteer.Table

	// Pipes hosts the dataplane module pipeline (internal/dataplane),
	// instantiated lazily when the first flow with FlowSpec.Pipeline is
	// added; nil on machines running only scalar-cost flows, which keeps
	// the legacy path byte-identical.
	Pipes *dataplane.Engine

	// Tenants and TenantCtrl are non-nil when Config.Tenancy is set: the
	// registry owns the per-tenant LLC partitions and accounting; the
	// controller (armed only in ModeDynamic) repartitions ways on the
	// machine's clock.
	Tenants    *tenant.Registry
	TenantCtrl *tenant.Controller

	DP Datapath

	Flows map[int]*Flow

	// Multi-queue rx path, non-nil when Config.Cores > 0: RSS hashes flows
	// onto len(queues) rx queues and each queue core drains its own flows
	// while sharing the LLC/DDIO region, memory controller, and PCIe link.
	RSS    *flowsteer.RSS
	queues []*Core
	// retiredPolls sums the poll counters of Cores == 0 per-flow cores
	// whose flows were removed (see pollTotals).
	retiredPolls pollCounts

	nextBuf cache.BufID

	// PktPool recycles packet descriptors: emit draws from it and
	// Deliver/Drop return to it, so the steady-state rx path allocates
	// no descriptors (the engine-side counterpart is the timing wheel's
	// record pool).
	PktPool *pkt.Pool
	// rxJobs / dmaJobs recycle the carriers of the zero-alloc event
	// plumbing of the rx path; see rxJob and dmaJob.
	rxJobs  sim.FreeList[rxJob]
	dmaJobs sim.FreeList[dmaJob]

	// HostPool bounds host I/O buffers when Config.HostBuffers > 0
	// (nil otherwise). NoHostBufDrops counts packets lost to exhaustion.
	HostPool       *bufpool.Pool
	NoHostBufDrops uint64

	// NICMemUsed tracks elastic-buffer occupancy in bytes.
	NICMemUsed int64

	// Faults, when set via SetFaults, injects deterministic faults at the
	// machine's hook points (wire loss/corruption here; DMA stalls in the
	// PCIe engine; control-plane faults in the datapath).
	Faults *faults.Injector
	// FaultDrops / FaultCorrupts count frames lost to injected wire
	// faults (corrupted frames fail the NIC's FCS check and are dropped).
	FaultDrops    uint64
	FaultCorrupts uint64

	// Aggregate metrics.
	Delivered     stats.Meter
	InvolvedMeter stats.Meter // CPU-involved deliveries only
	BypassMeter   stats.Meter // CPU-bypass deliveries only
	Latency       stats.Histogram
	TotalDrops    uint64

	// Reg is the machine's telemetry registry: the single source of
	// truth every snapshot renderer and exporter reads. All components
	// register at construction; the datapath adds its own series via
	// MetricSource.
	Reg *telemetry.Registry

	// OnDeliver, if set, observes every packet handed to the application
	// (workload logic, ordering assertions in tests).
	OnDeliver func(f *Flow, p *pkt.Packet)

	// OnIOEvict, if set, observes every I/O buffer the LLC evicts to DRAM
	// (DDIO insert overflow or tenant way reassignment; dataplane state
	// lines are excluded), with the partition it was cached in. RDCA's
	// window controller registers here to learn that in-flight rx
	// buffers were pushed out before consumption — the strongest shrink
	// signal it has. Nil on every other datapath, so their eviction path
	// is untouched.
	OnIOEvict func(id cache.BufID, part int)

	// Tracer, if set, records per-packet datapath events.
	Tracer *trace.Tracer
}

// Trace records a datapath event when tracing is enabled.
func (m *Machine) Trace(kind trace.Kind, flowID int, seq uint64) {
	if m.Tracer != nil {
		m.Tracer.Record(m.Eng.Now(), kind, flowID, seq)
	}
}

// NewMachine builds a machine and attaches the datapath. Invalid
// configurations panic: tests and experiments construct machines at
// program setup, where failing loudly beats propagating errors. Library
// consumers embedding the simulator should use NewMachineE instead.
func NewMachine(cfg Config, dp Datapath) *Machine {
	m, err := NewMachineE(cfg, dp)
	if err != nil {
		panic(err)
	}
	return m
}

// NewMachineE builds a machine on its own engine and attaches the
// datapath, reporting an invalid configuration as an error instead of
// panicking.
func NewMachineE(cfg Config, dp Datapath) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("iosys: building machine: %w", err)
	}
	eng := sim.NewEngine(cfg.Seed)
	m := &Machine{
		Eng:     eng,
		Cfg:     cfg,
		LLC:     cache.NewLLC(cfg.LLCBytes),
		Mem:     cache.NewMemory(eng, MemBandwidth, DRAMLatency),
		IIO:     cache.NewIIO(IIOBytes),
		Uncore:  sim.NewServer(eng, UncoreBW, 0),
		ToHost:  pcie.NewLink(eng, pcie.DefaultLinkConfig()),
		ToNIC:   pcie.NewLink(eng, pcie.DefaultLinkConfig()),
		RxWire:  sim.NewServer(eng, cfg.LinkBandwidth, 0),
		NICMem:  sim.NewServer(eng, cfg.NICMemBandwidth, 0),
		Steer:   flowsteer.NewTable(),
		DP:      dp,
		Flows:   make(map[int]*Flow),
		PktPool: pkt.NewPool(),
	}
	m.DMA = pcie.NewEngine(eng, m.ToHost, m.ToNIC, m.IIO, DMACredits)
	if cfg.Cores > 0 {
		m.RSS = flowsteer.NewRSS(cfg.Cores)
		m.queues = make([]*Core, cfg.Cores)
		for q := range m.queues {
			m.queues[q] = &Core{m: m, queue: q}
		}
		m.LLC.EnableQueueStats(cfg.Cores)
	}
	if cfg.HostBuffers > 0 {
		m.HostPool = bufpool.New(cfg.HostBuffers, IOBufSize)
	}
	if cfg.Tenancy != nil {
		// The registry carves the LLC before the datapath attaches, so
		// CEIO's credit derivation sees the final partition geometry.
		reg, err := tenant.NewRegistry(*cfg.Tenancy, m.LLC)
		if err != nil {
			return nil, fmt.Errorf("iosys: building machine: %w", err)
		}
		// Lines flushed by way reassignment are dirty unconsumed buffers:
		// they write back to DRAM like any other DDIO eviction.
		reg.SetEvictSink(m.writebackEvicted)
		m.Tenants = reg
		m.TenantCtrl = tenant.NewController(reg)
		m.TenantCtrl.Start(eng)
	}
	dp.Attach(m)
	m.Reg = telemetry.NewRegistry()
	m.registerMetrics()
	if ms, ok := dp.(MetricSource); ok {
		ms.RegisterMetrics(m.Reg)
	}
	if cfg.FaultPlan != nil {
		ij, err := faults.NewInjector(*cfg.FaultPlan)
		if err != nil {
			return nil, fmt.Errorf("iosys: building machine: %w", err)
		}
		m.SetFaults(ij)
	}
	return m, nil
}

// FaultAware is implemented by datapaths that react to fault injection
// being enabled (arming reconciliation timers, switching rings into
// fault-tolerant mode).
type FaultAware interface {
	FaultsEnabled()
}

// SetFaults arms deterministic fault injection on this machine: the wire,
// the PCIe DMA engine, the CPU cores, and (via FaultAware) the datapath's
// control plane all begin consulting ij. Call it before traffic starts so
// the whole run is covered; a nil ij is a no-op.
func (m *Machine) SetFaults(ij *faults.Injector) {
	if ij == nil {
		return
	}
	m.Faults = ij
	m.DMA.Faults = ij
	if m.Reg != nil {
		ij.RegisterMetrics(m.Reg)
	}
	if fa, ok := m.DP.(FaultAware); ok {
		fa.FaultsEnabled()
	}
}

// ReserveHostBuf obtains a pooled host I/O buffer for p, recording it on
// the packet. It returns true when unbounded or a buffer was available;
// on false the caller must divert or drop the packet.
func (m *Machine) ReserveHostBuf(p *pkt.Packet) bool {
	if m.HostPool == nil {
		return true
	}
	b := m.HostPool.Post()
	if b == nil {
		return false
	}
	p.HostBuf = b
	return true
}

// HostBufLanded marks p's pooled buffer as filled (DMA completed).
func (m *Machine) HostBufLanded(p *pkt.Packet) {
	if p.HostBuf != nil {
		if err := m.HostPool.Fill(p.HostBuf); err != nil {
			panic(err)
		}
	}
}

// releaseHostBuf recycles p's pooled buffer, whatever its state.
func (m *Machine) releaseHostBuf(p *pkt.Packet) {
	b := p.HostBuf
	if b == nil {
		return
	}
	p.HostBuf = nil
	var err error
	if b.State() == bufpool.StatePosted {
		err = m.HostPool.Cancel(b)
	} else {
		err = m.HostPool.Release(b)
	}
	if err != nil {
		panic(err)
	}
}

// AddFlow establishes a connection: congestion control starts, the
// datapath is notified (CEIO allocates credits and installs a steering
// rule here), a CPU-involved flow is attached to the core that drains it
// (§2.3), and the packet generator begins.
func (m *Machine) AddFlow(spec FlowSpec) *Flow {
	f, err := m.AddFlowE(spec)
	if err != nil {
		panic(err)
	}
	return f
}

// AddFlowE is AddFlow with invalid specs (duplicate flow IDs,
// non-positive packet sizes) reported as errors instead of panics.
func (m *Machine) AddFlowE(spec FlowSpec) (*Flow, error) {
	if _, dup := m.Flows[spec.ID]; dup {
		return nil, fmt.Errorf("iosys: adding flow: duplicate flow id %d", spec.ID)
	}
	if spec.PktSize <= 0 {
		return nil, fmt.Errorf("iosys: adding flow %d: packet size must be positive, got %d", spec.ID, spec.PktSize)
	}
	if spec.MsgPkts < 1 {
		spec.MsgPkts = 1
	}
	if len(spec.Pipeline) > 0 {
		if spec.Kind != CPUInvolved {
			return nil, fmt.Errorf("iosys: adding flow %d: pipeline %v on a %s flow (modules run on the polling core; only cpu-involved flows have one)",
				spec.ID, spec.Pipeline, spec.Kind)
		}
		if err := dataplane.ValidateChain(spec.Pipeline); err != nil {
			return nil, fmt.Errorf("iosys: adding flow %d: %w", spec.ID, err)
		}
	}
	rate := spec.InitialRate
	if rate <= 0 {
		rate = m.Cfg.LinkBandwidth / float64(len(m.Flows)+1)
	}
	tenantIdx, part := -1, 0
	if m.Tenants != nil {
		var err error
		tenantIdx, part, err = m.Tenants.ForFlow(spec.Tenant)
		if err != nil {
			return nil, fmt.Errorf("iosys: adding flow %d: %w", spec.ID, err)
		}
	} else if spec.Tenant != "" {
		return nil, fmt.Errorf("iosys: adding flow %d: tenant %q tagged but machine has no tenancy configured", spec.ID, spec.Tenant)
	}
	queue := -1
	if m.RSS != nil {
		switch {
		case spec.Queue < 0 || spec.Queue > m.Cfg.Cores:
			return nil, fmt.Errorf("iosys: adding flow %d: queue %d out of range [0,%d]", spec.ID, spec.Queue, m.Cfg.Cores)
		case spec.Queue > 0:
			queue = spec.Queue - 1
			m.RSS.Pin(queue)
		default:
			queue = m.RSS.Dispatch(spec.ID)
		}
	} else if spec.Queue != 0 {
		return nil, fmt.Errorf("iosys: adding flow %d: queue %d requested but machine has no multi-queue rx path (Cores == 0)", spec.ID, spec.Queue)
	}
	f := &Flow{FlowSpec: spec, m: m, active: true, tenantIdx: int32(tenantIdx), part: int32(part), queue: int32(queue)}
	if spec.Kind == CPUInvolved {
		if m.RSS != nil {
			f.core = m.queues[queue]
		} else {
			f.core = &Core{m: m, queue: -1}
		}
	}
	if len(spec.Pipeline) > 0 {
		// The chain was validated above, so resolution cannot fail; any
		// first-seen modules register their telemetry series here (the
		// sampler picks up late registrations at its next tick).
		if m.Pipes == nil {
			m.Pipes = dataplane.NewEngine(m.LLC, m.Mem, LLCHitLatency, m.writebackEvicted)
			m.registerPipelineMetrics()
		}
		chain, created, err := m.Pipes.Resolve(spec.Pipeline)
		if err != nil {
			return nil, fmt.Errorf("iosys: adding flow %d: %w", spec.ID, err)
		}
		f.pipe = chain
		for _, mod := range created {
			m.registerModuleMetrics(mod)
		}
	}
	ccCfg := m.Cfg.CC
	if spec.FixedRate {
		// UD-style traffic: the sender holds its rate regardless of
		// congestion feedback.
		ccCfg.MinRate, ccCfg.MaxRate = rate, rate
	}
	f.CC = transport.New(m.Eng, ccCfg, rate)
	f.Delivered.StartAt(m.Eng.Now())
	m.Flows[spec.ID] = f
	if m.Tenants != nil {
		m.Tenants.FlowAdded(f.TenantIndex())
	}
	m.DP.FlowAdded(f)
	if f.core != nil {
		f.core.addFlow(f)
	}
	m.scheduleNextPacket(f)
	return f, nil
}

// PauseFlow stops a flow's generator without tearing the flow down (used
// by the flow-scaling experiments, where a client revolves its traffic
// across thousands of established queue pairs).
func (m *Machine) PauseFlow(id int) {
	if f, ok := m.Flows[id]; ok {
		f.active = false
	}
}

// ResumeFlow restarts a paused flow's generator.
func (m *Machine) ResumeFlow(id int) {
	f, ok := m.Flows[id]
	if !ok || f.stopped || f.active {
		return
	}
	f.active = true
	f.windowBlocked = false
	m.scheduleNextPacket(f)
}

// RemoveFlow tears a flow down. In-flight packets already in the I/O
// system still drain; no new packets are generated.
func (m *Machine) RemoveFlow(id int) {
	f, ok := m.Flows[id]
	if !ok {
		return
	}
	f.stopped = true
	f.active = false
	f.CC.Stop()
	if f.core != nil {
		f.core.removeFlow(id)
		if m.RSS == nil {
			// The flow's own core is stopped for good: its counters are
			// final.
			m.retiredPolls.add(f.core.pollCounts)
		}
	}
	m.DP.FlowRemoved(f)
	if m.Tenants != nil {
		m.Tenants.FlowRemoved(f.TenantIndex())
	}
	if f.pipe != nil {
		m.Pipes.FlowDetached(f.pipe)
	}
	delete(m.Flows, id)
}

// Core returns the CPU core serving flow id: its own core on a
// Cores == 0 machine, its queue core on a multi-queue machine; nil for
// CPU-bypass and unknown flows.
func (m *Machine) Core(id int) *Core {
	if f, ok := m.Flows[id]; ok {
		return f.core
	}
	return nil
}

// pollTotals sums the poll counters of every per-flow core a Cores == 0
// machine has run: the live flows' cores plus those retired by
// RemoveFlow. Read-time only; the poll loop keeps no machine total.
func (m *Machine) pollTotals() pollCounts {
	t := m.retiredPolls
	for _, f := range m.Flows {
		if f.core != nil {
			t.add(f.core.pollCounts)
		}
	}
	return t
}

// scheduleNextPacket paces the flow generator at its current CC rate,
// subject to the congestion window: a sender never has more than
// rate x RTT bytes in flight, so receiver-side consumption (deliveries)
// clocks the transmission like real DCTCP.
func (m *Machine) scheduleNextPacket(f *Flow) {
	if !f.Active() {
		return
	}
	wire := float64(f.PktSize + m.Cfg.EthOverhead)
	rate := f.CC.Rate() / 1e9 // bytes per ns
	gap := sim.Time(wire / rate)
	if gap < 1 {
		gap = 1
	}
	m.Eng.AfterArg(gap, paceTick, f)
}

// paceTick is the generator's per-packet tick: burst shaping, window
// gating, then emission.
func paceTick(arg any) {
	f := arg.(*Flow)
	m := f.m
	if !f.Active() {
		return
	}
	// On/off burst shaping: during the off phase, park until the next
	// on phase begins (phase locked to the clock, forming incast
	// across flows with the same shape).
	if f.BurstOn > 0 && f.BurstOff > 0 {
		cycle := f.BurstOn + f.BurstOff
		pos := m.Eng.Now() % cycle
		if pos >= f.BurstOn {
			m.Eng.AfterArg(cycle-pos, paceResume, f)
			return
		}
	}
	// Window check: at least one packet may always be in flight so a
	// window smaller than the packet size (jumbo frames at the rate
	// floor) cannot deadlock the generator.
	wire := float64(f.PktSize + m.Cfg.EthOverhead)
	if f.inFlight > 0 && float64(f.inFlight)+wire > f.CC.Window() {
		// Window closed: park until a delivery or drop frees space.
		f.windowBlocked = true
		return
	}
	m.emit(f)
	m.scheduleNextPacket(f)
}

// paceResume restarts the generator when a burst's off phase ends.
func paceResume(arg any) {
	f := arg.(*Flow)
	f.m.scheduleNextPacket(f)
}

// windowOpened resumes a generator parked on a closed window.
func (m *Machine) windowOpened(f *Flow) {
	if f.windowBlocked && f.Active() {
		f.windowBlocked = false
		m.scheduleNextPacket(f)
	}
}

// rxJob carries one packet's (machine, flow, packet) context through the
// wire-serialisation, NIC-pipeline and bypass-consumer stages.
// Pool-recycled so the rx path schedules with AtArg instead of
// allocating a closure per stage.
type rxJob struct {
	m *Machine
	f *Flow
	p *pkt.Packet
}

func (m *Machine) getRxJob(f *Flow, p *pkt.Packet) *rxJob {
	j := m.rxJobs.Get()
	*j = rxJob{m: m, f: f, p: p}
	return j
}

// emit injects one packet onto the wire toward the NIC.
func (m *Machine) emit(f *Flow) {
	m.nextBuf++
	p := m.PktPool.Get()
	p.Buf = m.nextBuf
	p.FlowID = f.ID
	p.Seq = f.nextSeq
	p.Size = f.PktSize
	p.Part = f.Partition()
	p.MsgStart = f.msgPos == 0
	p.MsgEnd = f.msgPos == f.MsgPkts-1
	f.nextSeq++
	f.msgPos++
	if f.msgPos == f.MsgPkts {
		f.msgPos = 0
	}
	f.Generated++
	f.inFlight += int64(p.Size + m.Cfg.EthOverhead)

	// Wire serialisation through the shared 200 Gbps port. ECN marking
	// fires when the port backlog exceeds the DCTCP threshold.
	if m.RxWire.QueueDelay() > MarkThreshold {
		p.Marked = true
	}
	m.RxWire.SubmitArg(p.Size+m.Cfg.EthOverhead, wireArrived, m.getRxJob(f, p))
}

// wireArrived fires when a frame finishes serialising through the rx
// port: fault checks, then the NIC pipeline stage.
func wireArrived(arg any) {
	j := arg.(*rxJob)
	m, f, p := j.m, j.f, j.p
	p.Arrival = m.Eng.Now()
	// Injected wire faults: a dropped frame never reaches the NIC; a
	// corrupted one fails the FCS check in the MAC and is discarded
	// there. Either way the sender's CCA observes the loss.
	switch m.Faults.WireVerdict() {
	case faults.VerdictDrop:
		m.FaultDrops++
		m.Trace(trace.KindFault, p.FlowID, p.Seq)
		m.rxJobs.Put(j)
		m.Drop(f, p)
		return
	case faults.VerdictCorrupt:
		m.FaultCorrupts++
		m.Trace(trace.KindFault, p.FlowID, p.Seq)
		m.rxJobs.Put(j)
		m.Drop(f, p)
		return
	}
	m.Trace(trace.KindArrive, p.FlowID, p.Seq)
	m.Eng.AfterArg(NICPipelineCost, nicIngress, j)
}

// nicIngress hands the packet to the datapath after the NIC pipeline
// delay and recycles the carrier. A packet whose flow was torn down while
// it was on the wire is dropped here.
func nicIngress(arg any) {
	j := arg.(*rxJob)
	m, f, p := j.m, j.f, j.p
	m.rxJobs.Put(j)
	if f.Removed() {
		m.Drop(f, p)
		return
	}
	m.DP.Ingress(f, p)
}

// dmaJob carries one packet's DMA-write context (IIO arrival, LLC
// commit, Landed hook) without per-stage closures; pooled like rxJob.
type dmaJob struct {
	m *Machine
	f *Flow
	p *pkt.Packet
	w *pcie.Write
}

// DMAToHost carries flow f's packet p over PCIe, commits it through the
// IIO into the DDIO region of the LLC, and hands it to the datapath's
// Landed hook. Evictions of older unconsumed I/O buffers write back to
// DRAM and delay the commit by the memory controller's backlog — the
// host-congestion coupling HostCC's IIO signal detects.
func (m *Machine) DMAToHost(f *Flow, p *pkt.Packet) {
	j := m.dmaJobs.Get()
	*j = dmaJob{m: m, f: f, p: p}
	m.DMA.WriteTo(p.Size, dmaArrived, j)
}

// dmaArrived fires at the head of the IIO: the packet's lines commit
// into the DDIO region, evictions write back, and the uncore port clocks
// the commit latency.
func dmaArrived(arg any, w *pcie.Write) {
	j := arg.(*dmaJob)
	m, p := j.m, j.p
	j.w = w
	// An in-flight packet pins a whole pooled I/O buffer's worth of
	// cache: DDIO rewrites only the packet's lines, but buffer-pool
	// recycling leaves the rest of the 2KB buffer's lines resident
	// from earlier use. Jumbo frames span multiple buffers.
	occ := int64(IOBufSize)
	if lines := int64((p.Size + 63) &^ 63); lines > occ {
		occ = lines
	}
	var evicted []cache.Evicted
	p.LLC, evicted = m.LLC.InsertIOSized(p.Part, p.Buf, occ, int64(p.Size))
	// Evicted dirty lines write back to DRAM asynchronously, charging
	// memory bandwidth (and thereby inflating CPU miss latency and
	// slowing bulk moves) without stalling the DDIO commit itself.
	m.writebackEvicted(evicted)
	m.Uncore.Submit(p.Size)
	m.Eng.AfterArg(m.Uncore.QueueDelay(), dmaCommitted, j)
}

// dmaCommitted finalises the DMA: the packet is resident, the IIO slot
// drains, and the datapath's Landed hook runs.
func dmaCommitted(arg any) {
	j := arg.(*dmaJob)
	m, f, p, w := j.m, j.f, j.p, j.w
	p.Landed = true
	m.HostBufLanded(p)
	m.Trace(trace.KindLanded, p.FlowID, p.Seq)
	m.dmaJobs.Put(j)
	w.Done()
	m.Doorbell(f)
	m.DP.Landed(f, p)
}

// Doorbell arms the core that drains f, so its next poll calls the
// datapath instead of being answered empty (see Datapath.Poll). A no-op
// for CPU-bypass flows, which have no core.
func (m *Machine) Doorbell(f *Flow) {
	if f.core != nil {
		f.core.armed = true
	}
}

// writebackEvicted charges DRAM writebacks for buffers evicted from the
// LLC (DDIO insert overflow, dataplane state pressure, or tenant way
// reassignment). Payload sizes ride in the LRU nodes (cache.Evicted),
// replacing the per-buffer side map the emit path used to maintain.
func (m *Machine) writebackEvicted(evicted []cache.Evicted) {
	for _, e := range evicted {
		if cache.IsStateLine(e.ID) {
			// Module state lines are read-mostly: eviction is free, the
			// cost is the refill DRAM access at the next touch. The
			// pipeline engine keeps its residency gauge in step.
			if m.Pipes != nil {
				m.Pipes.StateEvicted(e.ID)
			}
			continue
		}
		if m.OnIOEvict != nil {
			m.OnIOEvict(e.ID, int(e.Part))
		}
		size := int(e.Payload)
		if size == 0 {
			size = IOBufSize
		}
		m.Mem.Writeback(size)
	}
}

// Deliver finalises a packet: latency and throughput accounting, ECN
// feedback to the sender, and the datapath's post-delivery hook.
func (m *Machine) Deliver(f *Flow, p *pkt.Packet) {
	now := m.Eng.Now()
	f.Delivered.Record(p.Size)
	lat := int64(now - p.Arrival + ClientOverhead)
	f.Latency.Record(lat)
	m.Latency.Record(lat)
	m.Delivered.Record(p.Size)
	if f.Kind == CPUInvolved {
		m.InvolvedMeter.Record(p.Size)
	} else {
		m.BypassMeter.Record(p.Size)
	}
	if m.Tenants != nil {
		m.Tenants.RecordDelivery(f.TenantIndex(), p.Size)
	}
	m.releaseHostBuf(p)
	f.inFlight -= int64(p.Size + m.Cfg.EthOverhead)
	m.Trace(trace.KindDelivered, p.FlowID, p.Seq)
	f.CC.OnAck(p.Marked)
	if m.OnDeliver != nil {
		m.OnDeliver(f, p)
	}
	m.DP.OnDelivered(f, p)
	// End of the descriptor's life: every packet terminates in exactly
	// one Deliver or Drop, so this is the unique recycle point.
	m.PktPool.Put(p)
	m.windowOpened(f)
}

// Drop discards a packet (ring overflow, steering drop): the buffer is
// released and the sender's CCA observes a loss.
func (m *Machine) Drop(f *Flow, p *pkt.Packet) {
	f.Drops++
	m.TotalDrops++
	m.LLC.Drop(p.LLC, p.Buf)
	f.inFlight -= int64(p.Size + m.Cfg.EthOverhead)
	m.releaseHostBuf(p)
	m.Trace(trace.KindDropped, p.FlowID, p.Seq)
	f.CC.OnLoss()
	m.PktPool.Put(p)
	m.windowOpened(f)
}

// DropNoHostBuf drops a packet for lack of a pooled host buffer.
func (m *Machine) DropNoHostBuf(f *Flow, p *pkt.Packet) {
	m.NoHostBufDrops++
	m.Drop(f, p)
}

// ConsumeBypass models the memory-controller side of a CPU-bypass packet
// that landed in the LLC (path ② of Figure 3): the DFS/RDMA consumer
// streams the data onward through the shared memory controller. The LLC
// lines are NOT freed — a write-back cache keeps them resident (dirty)
// until later DDIO insertions evict them, which is how sustained bypass
// traffic flushes CPU-involved flows' packets out of the LLC (§2.2).
func (m *Machine) ConsumeBypass(f *Flow, p *pkt.Packet) {
	// The consumer's post-processing passes (LineFS replication and
	// logging) multiply the memory traffic per received byte and gate
	// delivery, so a DFS under load becomes memory-bandwidth-bound.
	moved := p.Size * (1 + f.PostPasses)
	m.Mem.BulkMoveArg(moved, bypassMoved, m.getRxJob(f, p))
}

// bypassMoved fires when the memory controller finishes streaming a
// CPU-bypass chunk onward: probe the LLC, charge a DRAM fetch on a miss,
// and deliver.
func bypassMoved(arg any) {
	j := arg.(*rxJob)
	m, f, p := j.m, j.f, j.p
	m.rxJobs.Put(j)
	hit := m.LLC.ProbeIn(p.Part, p.LLC, p.Buf)
	if m.Tenants != nil {
		m.Tenants.Account(f.TenantIndex(), hit)
	}
	if !hit {
		// The consumer's read missed: the chunk was already evicted
		// to DRAM, costing an extra fetch of the payload.
		m.Mem.Writeback(p.Size)
	}
	m.Deliver(f, p)
}

// PacketCPUCost computes the CPU time to process one packet on a core:
// driver base cost, the memory access (LLC hit or DRAM miss), and the
// workload's application work including optional memcpy.
func (m *Machine) PacketCPUCost(f *Flow, p *pkt.Packet) sim.Time {
	c := CPUBaseCost
	if p.Path == pkt.PathSlow {
		// Slow-path data was just DMA-read into host memory and is warm.
		c += LLCHitLatency
	} else {
		hit := m.LLC.ConsumeIn(p.Part, p.LLC, p.Buf)
		m.LLC.AccountQueue(f.QueueIndex(), hit)
		if m.Tenants != nil {
			m.Tenants.Account(f.TenantIndex(), hit)
		}
		if hit {
			c += LLCHitLatency
		} else {
			c += m.Mem.AccessLatency(p.Size)
		}
	}
	if f.pipe != nil {
		// The module chain replaces the scalar application cost: cycles
		// plus per-touch state accesses charged against the LLC (state
		// refills under pressure evict I/O buffers, coupling pipeline
		// weight to the I/O miss rate).
		c += m.Pipes.PacketCost(f.pipe, f.Partition(), f.ID, p.Seq)
	} else {
		c += f.Cost.PerPacket
	}
	if !f.Cost.ZeroCopy && f.Cost.CopyBandwidth > 0 {
		c += sim.Time(float64(p.Size) / (f.Cost.CopyBandwidth / 1e9))
		if f.Cost.AppBufMissRate > 0 && m.Eng.Rand().Float64() < f.Cost.AppBufMissRate {
			c += m.Mem.AccessLatency(p.Size)
		}
	}
	return c
}

// InvolvedFlowCount returns the number of active CPU-involved flows.
func (m *Machine) InvolvedFlowCount() int {
	n := 0
	for _, f := range m.Flows {
		if f.Kind == CPUInvolved {
			n++
		}
	}
	return n
}

// ResetWindow restarts all throughput meters and cache counters; used to
// measure steady-state windows after warm-up.
func (m *Machine) ResetWindow() {
	now := m.Eng.Now()
	m.Delivered.Reset(now)
	m.InvolvedMeter.Reset(now)
	m.BypassMeter.Reset(now)
	m.Latency.Reset()
	for _, f := range m.Flows {
		f.Delivered.Reset(now)
		f.Latency.Reset()
	}
	m.LLC.ResetStats()
	if m.Tenants != nil {
		m.Tenants.ResetWindow(now)
	}
	if m.Pipes != nil {
		m.Pipes.ResetWindow()
	}
}

// Run advances the simulation until the given absolute time.
func (m *Machine) Run(until sim.Time) { m.Eng.RunUntil(until) }

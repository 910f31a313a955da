package core

import (
	"fmt"
	"slices"

	"ceio/internal/flowsteer"
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/ring"
	"ceio/internal/sim"
	"ceio/internal/trace"
)

// Fixed parameters of the flow controller and elastic buffer manager.
// The paper fixes Algorithm 1's scan, re-activation, low-water and
// steering-retry parameters; only the design switches in Options vary.
const (
	// SWRingEntries is each flow's software-ring logical capacity; ring
	// storage starts small and grows on demand up to it.
	SWRingEntries = 8192
	// SlowMarkDepth is the on-NIC backlog (packets) at which arriving
	// slow-path packets are ECN-marked, triggering the CCA when the
	// network's production rate exceeds the slow path's consumption rate
	// (§4.1 Q2).
	SlowMarkDepth = 64
	// ControlOverhead is the per-packet latency added by the flow
	// controller logic on the NIC's ARM cores (Table 3 measures it as a
	// 1.10-1.48x latency overhead versus raw RDMA writes).
	ControlOverhead = 150 * sim.Nanosecond
	// ScanPeriod is the active-flow scan interval (§4.1 Q3).
	ScanPeriod = 200 * sim.Microsecond
	// ReactivatePeriod is the round-robin re-activation backup timer.
	ReactivatePeriod = 500 * sim.Microsecond
	// ReactivateQuota is the credit grant given to a re-activated flow.
	ReactivateQuota = 64
	// InactiveScans is the number of consecutive idle scan periods after
	// which a flow is declared inactive and its credits recycled (the
	// paper uses a coarse ~1s timer; this is the scaled equivalent).
	InactiveScans = 5
	// SteerRetryLimit bounds retries of a rejected steering-rule update
	// before the controller gives up and pins the flow to the degraded
	// slow path (a later reactivation probes the table again).
	SteerRetryLimit = 4
	// SteerRetryBase is the first retry's backoff; it doubles per attempt.
	SteerRetryBase = 2 * sim.Microsecond
)

// Options configure the CEIO datapath. The boolean switches exist to
// reproduce the paper's ablations (Table 4 evaluates CEIO with and
// without the fast/slow path optimisations) and micro-benchmarks (Fig. 11
// forces the slow path by setting a flow's credits to zero).
type Options struct {
	// TotalCredits overrides C_total (0 = derive from the machine config
	// via Eq. 1: LLC bytes / I/O buffer size).
	TotalCredits int
	// ReadAhead bounds outstanding slow-path DMA reads per flow.
	ReadAhead int

	// ReclaimPeriod is the credit-reconciliation heartbeat, armed only
	// when fault injection is enabled: credits whose release messages were
	// lost (host says released, controller never heard) are reclaimed
	// after roughly this long, restoring conservation.
	ReclaimPeriod sim.Time
	// ReadTimeout is the slow-path DMA read retransmit timeout: a read
	// whose completion was lost to an injected fault is reissued after it.
	ReadTimeout sim.Time

	// LazyRelease enables the lazy credit release design choice of §4.1
	// (credits return only at message-batch completion). Disabling it
	// releases per packet — the "eager" ablation.
	LazyRelease bool
	// CreditRealloc enables the active-flow credit reallocation (Q3);
	// Table 4's "CEIO w/o optimization" disables it.
	CreditRealloc bool
	// AsyncDrain enables asynchronous slow-path DMA reads (§4.2);
	// disabling it fetches synchronously, stalling the consumer.
	AsyncDrain bool
	// ForceSlowPath sets every flow's credits to zero so all traffic
	// takes the slow path (Fig. 11's "slow path" curve).
	ForceSlowPath bool
	// MPQ replaces the credit-based scheduler with the PIAS-style
	// Multiple Priority Queues strawman §4.1 argues against: a shared
	// credit pool with per-priority reserves and eager release (see
	// mpq.go). Used by the MPQ-vs-lazy-release ablation.
	MPQ bool
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{
		ReadAhead:     16,
		ReclaimPeriod: sim.Millisecond,
		ReadTimeout:   25 * sim.Microsecond,
		LazyRelease:   true,
		CreditRealloc: true,
		AsyncDrain:    true,
	}
}

// Validate reports an out-of-range option, naming the field. A zero
// count or period selects its default; a negative one is an error
// rather than a panic deep in the controller or a flow that silently
// never drains.
func (o Options) Validate() error {
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"TotalCredits", int64(o.TotalCredits)},
		{"ReadAhead", int64(o.ReadAhead)},
		{"ReclaimPeriod", int64(o.ReclaimPeriod)},
		{"ReadTimeout", int64(o.ReadTimeout)},
	} {
		if c.v < 0 {
			return fmt.Errorf("core: Options.%s must not be negative (got %d)", c.name, c.v)
		}
	}
	return nil
}

// flowState is the per-flow state of the flow controller plus elastic
// buffer manager. Hooks reach it through Flow.DP, never by flow ID, so a
// torn-down flow's packets find only its own (gone) state.
type flowState struct {
	f  *iosys.Flow
	sw *ring.SWRing
	// cred is the flow's controller account. RemoveFlow zeroes and retires
	// it, so a torn-down state reads no credits and releases nothing.
	cred *FlowCredits
	// slot is the flow's index in its byQueue member list (see
	// coreshare.go); -1 when it is not listed there.
	slot int32

	mode pkt.Path // current steering action for this flow

	fastInFlight  int                    // fast-path DMA writes not yet landed
	waitQ         sim.Queue[*pkt.Packet] // on-NIC packets awaiting SW-ring insertion
	onNIC         int                    // packets resident in on-NIC memory
	slowUnpushed  int                    // slow packets not yet inserted in the SW ring
	readsInFlight int

	// pending is the reused scratch for the SW-ring indices issueReads
	// and the synchronous-read path scan for.
	pending []uint64

	unreleased      int    // fast-path packets delivered since last release
	deliveredAtScan uint64 // activity tracking for the credit scan
	generatedAtScan uint64
	idleScans       int  // consecutive scans with no traffic
	active          bool // carried traffic recently, as of the last scan

	steerEpoch uint64 // bumps per desired-action change; stale async commits abort
	degraded   bool   // steering gave up: pinned to the slow path until a retry succeeds

	// Host/NIC release heartbeat counters for credit reconciliation:
	// releasesSent counts credits the host driver reported released,
	// releasesApplied those the controller actually received. A persistent
	// gap means release messages were lost and the difference is leaked
	// InUse credit the reconciliation timer must reclaim.
	releasesSent    uint64
	releasesApplied uint64

	// PIAS priority tracking (MPQ scheduler only).
	sentBytes uint64
	priority  int
}

// CEIO is the cache-efficient I/O datapath (Figure 5): a credit-based
// flow controller at the NIC entrance decides per packet between the
// legacy fast path (DMA into the DDIO region of the LLC) and the elastic
// slow path (buffering in on-NIC memory), and the elastic buffer manager
// drains the slow path into host memory in order, asynchronously.
type CEIO struct {
	m    *iosys.Machine
	opt  Options
	ctrl *CreditController

	flows    []*flowState // live flows; flows[i].cred is ctrl.flows[i]
	rrCursor int
	mpqInUse int // shared credits consumed (MPQ scheduler only)

	// coreShares carves C_total into per-rx-queue-core budgets on a
	// multi-queue machine (see coreshare.go); nil when Cores == 0 or under
	// the MPQ strawman.
	coreShares []int
	// byQueue lists the live flows of each rx queue (only while
	// coreShares is set), so the per-core budget check scans only the
	// flows it bounds.
	byQueue   [][]*flowState
	auditSums []int // reused scratch of auditMembers

	// jobs recycles the per-packet ctrlJob carriers that ride the
	// controller window, fast-path DMA, on-NIC DRAM pipeline and stalled
	// drain retries.
	jobs sim.FreeList[ctrlJob]

	// faultMode is set once fault injection is armed: rings tolerate
	// protocol violations, reconciliation runs, and graceful shedding under
	// on-NIC memory pressure activates. Never set in fault-free runs, so
	// their event sequence is byte-identical to before this machinery.
	faultMode bool
	// draining holds torn-down flows that still own on-NIC bytes (reads or
	// writes in flight at teardown); the elastic audit counts them until
	// their completions surrender the buffers.
	draining             map[*flowState]struct{}
	ringViolationsClosed uint64 // ring violations of fully torn-down flows

	// Statistics.
	FastPackets uint64
	SlowPackets uint64
	SlowMarks   uint64
	Drains      uint64 // completed slow-path drains (fast path resumes)
	NICMemDrops uint64
	// TenantRejects counts fast-path admissions refused because the
	// flow's tenant had its whole partition budget in flight (packets
	// divert to the slow path instead of evicting co-tenants' buffers).
	TenantRejects uint64
	// CoreRejects counts fast-path admissions refused because the flow's
	// rx-queue core had its whole credit share in flight.
	CoreRejects uint64
	// CoreCreditsMoved counts credits the active-flow scan moved between
	// cores when re-carving the per-core shares.
	CoreCreditsMoved uint64

	// Fault-handling statistics (all zero in fault-free runs).
	CreditLossEvents uint64 // release messages lost to injection
	CreditsReclaimed uint64 // credits recovered by reconciliation
	ReadRetries      uint64 // slow-path reads reissued after a lost completion
	SteerRetries     uint64 // steering updates retried after rejection
	SteerFallbacks   uint64 // flows pinned to the degraded slow path
	StaleSteerHits   uint64 // packets rerouted past a lagging steering rule
	PressureMarks    uint64 // arrivals ECN-marked by graceful shedding
}

// New constructs the CEIO datapath with opts.
func New(opts Options) *CEIO {
	d := DefaultOptions()
	if opts.ReadAhead == 0 {
		opts.ReadAhead = d.ReadAhead
	}
	if opts.ReclaimPeriod == 0 {
		opts.ReclaimPeriod = d.ReclaimPeriod
	}
	if opts.ReadTimeout == 0 {
		opts.ReadTimeout = d.ReadTimeout
	}
	return &CEIO{
		opt:      opts,
		draining: make(map[*flowState]struct{}),
	}
}

// Name implements iosys.Datapath.
func (c *CEIO) Name() string { return "CEIO" }

// Controller exposes the credit controller (tests, diagnostics).
func (c *CEIO) Controller() *CreditController { return c.ctrl }

// Attach implements iosys.Datapath: it derives C_total from the machine
// configuration and starts the credit-management timers.
func (c *CEIO) Attach(m *iosys.Machine) {
	c.m = m
	total := c.opt.TotalCredits
	if total == 0 {
		total = m.Cfg.TotalCredits()
	}
	c.ctrl = NewCreditController(total)
	c.ctrl.doorbell = m.Doorbell
	if m.Cfg.Cores > 0 && !c.opt.MPQ {
		// Multi-queue machine: carve C_total into per-core shares (equal
		// until the active-flow scan learns the per-core populations).
		c.coreShares = carveShares(total, make([]int, m.Cfg.Cores))
		c.byQueue = make([][]*flowState, m.Cfg.Cores)
	}
	if c.opt.CreditRealloc && !c.opt.MPQ {
		m.Eng.Every(ScanPeriod, ScanPeriod, c.scanActiveFlows)
		m.Eng.Every(ReactivatePeriod, ReactivatePeriod, c.reactivateRoundRobin)
	}
}

// FaultsEnabled implements iosys.FaultAware: the control plane switches to
// degraded-tolerant operation. Software rings stop panicking on protocol
// violations (counting them for the auditor instead), and the credit
// reconciliation heartbeat starts. Fault-free runs never reach this, so
// they schedule no extra events and keep their exact event ordering.
func (c *CEIO) FaultsEnabled() {
	c.faultMode = true
	for _, st := range c.flows {
		st.sw.FaultTolerant = true
	}
	if !c.opt.MPQ {
		c.m.Eng.Every(c.opt.ReclaimPeriod, c.opt.ReclaimPeriod, c.reconcileCredits)
	}
}

// FlowAdded allocates credits per Algorithm 1 and offloads the initial
// fast-path steering rule to the RMT engine.
func (c *CEIO) FlowAdded(f *iosys.Flow) {
	st := &flowState{f: f, sw: ring.NewSWRing(SWRingEntries), cred: c.ctrl.AddFlows(f.ID)[0], slot: -1}
	st.cred.flow = f
	st.sw.FaultTolerant = c.faultMode
	if c.opt.ForceSlowPath {
		c.ctrl.Recycle(st.cred)
		st.mode = pkt.PathSlow
		c.m.Steer.Install(f.ID, flowsteer.ActionSlowPath)
	} else {
		st.mode = pkt.PathFast
		c.m.Steer.Install(f.ID, flowsteer.ActionFastPath)
	}
	c.flows = append(c.flows, st)
	c.addMember(st)
	f.DP = st
}

// FlowRemoved releases the flow's credits back to the pool, removes its
// steering rule, and tears down its elastic-buffer residue.
func (c *CEIO) FlowRemoved(f *iosys.Flow) {
	st := f.DP.(*flowState)
	if st.unreleased > 0 {
		c.release(st, st.unreleased)
		st.unreleased = 0
	}
	c.ctrl.RemoveFlow(st.cred)
	c.m.Steer.Uninstall(f.ID)
	if i := slices.Index(c.flows, st); i >= 0 {
		c.flows = slices.Delete(c.flows, i, i+1)
	}
	c.dropMember(st)
	c.teardownElastic(st)
}

// teardownElastic surrenders the elastic-buffer state a removed flow still
// holds: waitQ packets and undelivered ring entries are dropped, returning
// their on-NIC bytes and host buffers to the pools. Packets with a DMA
// read still in flight stay accounted in the draining set until their
// completions surrender them, keeping the NICMemUsed audit exact at every
// instant of the teardown.
func (c *CEIO) teardownElastic(st *flowState) {
	st.steerEpoch++ // cancel outstanding steering retries/commits
	c.ringViolationsClosed += st.sw.Violations
	bufBytes := int64(iosys.IOBufSize)
	for _, p := range st.waitQ.Items() {
		st.onNIC--
		c.m.NICMemUsed -= bufBytes
		if st.f.Kind == iosys.CPUInvolved {
			st.slowUnpushed--
		}
		c.m.Drop(st.f, p)
	}
	st.waitQ = sim.Queue[*pkt.Packet]{}
	for {
		p, slow, ready, ok := st.sw.PopAny()
		if !ok {
			break
		}
		if p == nil {
			continue
		}
		if slow && !ready {
			if p.Landed {
				// Read in flight: its completion aborts and surrenders the
				// on-NIC bytes, host buffer, and readsInFlight count.
				continue
			}
			st.onNIC--
			c.m.NICMemUsed -= bufBytes
		}
		c.m.Drop(st.f, p)
	}
	if st.onNIC > 0 {
		c.draining[st] = struct{}{}
	}
}

// finishDrain retires a torn-down flow from the draining set once its last
// on-NIC packet has been surrendered.
func (c *CEIO) finishDrain(st *flowState) {
	if st.f.Removed() && st.onNIC == 0 {
		delete(c.draining, st)
	}
}

// ctrlJob carries one packet's (controller, flow state, packet) context
// through the NIC controller's processing window and the slow-path read
// pipeline; pool-recycled so the steady state schedules without
// allocating.
type ctrlJob struct {
	c    *CEIO
	st   *flowState
	p    *pkt.Packet
	cont uint8  // read-completion continuation selector
	idx  uint64 // SW-ring index for contMarkReady
}

// Read-completion continuations (ctrlJob.cont).
const (
	// contMarkReady marks SW-ring entry idx ready (CPU-involved flows).
	contMarkReady uint8 = iota
	// contBypass runs the CPU-bypass post-processing passes, delivers,
	// and continues the event-driven drain.
	contBypass
)

func (c *CEIO) getJob(st *flowState, p *pkt.Packet) *ctrlJob {
	j := c.jobs.Get()
	*j = ctrlJob{c: c, st: st, p: p}
	return j
}

// Ingress implements the NIC-entrance decision of Figure 6: consume a
// credit and take the legacy fast path, or divert to the elastic on-NIC
// buffer. The control overhead models the flow controller logic on the
// NIC cores.
func (c *CEIO) Ingress(f *iosys.Flow, p *pkt.Packet) {
	c.m.Eng.AfterArg(ControlOverhead, ctrlDecide, c.getJob(f.DP.(*flowState), p))
}

// ctrlDecide runs after the controller's processing window: steer the
// packet onto the fast path (credits permitting) or the slow path.
func ctrlDecide(arg any) {
	j := arg.(*ctrlJob)
	c, st, p := j.c, j.st, j.p
	c.jobs.Put(j)
	if st.f.Removed() {
		// Torn down during the controller's processing window.
		c.m.Drop(st.f, p)
		return
	}
	action := c.m.Steer.Lookup(st.f.ID, p.Size)
	if action == flowsteer.ActionFastPath {
		if st.mode == pkt.PathSlow {
			// Stale rule: the demotion's table update has not taken
			// effect yet (injected delay or rejected update). Honour the
			// controller's decision — a fast-path DMA here would overtake
			// the flow's queued slow-path packets and break SW-ring FIFO
			// order. Unreachable in fault-free runs, where rule and mode
			// change atomically.
			c.StaleSteerHits++
			c.ingressSlow(st, p)
			return
		}
		if c.admit(st, p) {
			c.ingressFast(st, p)
			return
		}
	}
	c.ingressSlow(st, p)
}

// setSteer moves the flow's steering rule to a, retrying rejected updates
// with exponential backoff and falling back to a degraded slow-path pin
// when the table stays unreachable. A new call supersedes any outstanding
// update through the epoch guard, so delayed commits can never clobber a
// newer decision. Fault-free, this is a synchronous table write.
func (c *CEIO) setSteer(st *flowState, a flowsteer.Action) {
	st.steerEpoch++
	c.trySteer(st, a, st.steerEpoch, 0)
}

func (c *CEIO) trySteer(st *flowState, a flowsteer.Action, epoch uint64, attempt int) {
	if st.steerEpoch != epoch || st.f.Removed() {
		return // superseded, or flow gone
	}
	if c.m.Faults == nil {
		c.m.Steer.SetAction(st.f.ID, a)
		return
	}
	delay, fail := c.m.Faults.SteerUpdate()
	if fail {
		c.m.Steer.UpdateFailed()
		if attempt >= SteerRetryLimit {
			c.steerFallback(st)
			return
		}
		c.SteerRetries++
		backoff := SteerRetryBase << uint(attempt)
		c.m.Eng.After(backoff, func() { c.trySteer(st, a, epoch, attempt+1) })
		return
	}
	if delay > 0 {
		c.m.Eng.After(delay, func() { c.commitSteer(st, a, epoch) })
		return
	}
	c.m.Steer.SetAction(st.f.ID, a)
	st.degraded = false
}

func (c *CEIO) commitSteer(st *flowState, a flowsteer.Action, epoch uint64) {
	if st.steerEpoch != epoch || st.f.Removed() {
		return
	}
	c.m.Steer.SetAction(st.f.ID, a)
	st.degraded = false
}

// steerFallback is the bounded-retry exhaustion path: rather than spin on
// an unreachable table, the flow is pinned to the slow path — degraded but
// ordered and live, since the stale-rule check in Ingress routes around
// whatever action the table is stuck on. A later reactivation grant
// triggers a fresh resume attempt, which probes the table again.
func (c *CEIO) steerFallback(st *flowState) {
	c.SteerFallbacks++
	st.degraded = true
	if st.mode != pkt.PathSlow {
		st.mode = pkt.PathSlow
		c.m.Doorbell(st.f)
		c.m.Trace(trace.KindModeSlow, st.f.ID, 0)
	}
}

// admit decides fast-path admission under the active scheduler: per-flow
// credit accounts with a proactive low-water ECN signal (CEIO's design),
// or the shared-pool PIAS admission of the MPQ strawman.
func (c *CEIO) admit(st *flowState, p *pkt.Packet) bool {
	if c.opt.MPQ {
		return c.mpqAdmit(st, p)
	}
	// On a partitioned machine the credit bound is per tenant, not
	// global: Eq. 1 applied to the tenant's partition instead of the
	// whole DDIO region. A tenant with its full partition budget in
	// flight diverts to the slow path even if other tenants' credits
	// are idle — in-flight fast-path bytes can then never exceed the
	// partition, so a tenant cannot thrash its own (or, with the
	// waymasks, anyone else's) allocation.
	if !c.tenantBudgetOK(st) {
		c.TenantRejects++
		return false
	}
	// The same bound per rx-queue core: a core with its whole carved share
	// in flight diverts to the slow path rather than evicting buffers the
	// other cores have yet to consume.
	if !c.coreBudgetOK(st) {
		c.CoreRejects++
		return false
	}
	if !c.ctrl.Consume(st.cred) {
		return false
	}
	// Proactive rate signal: when the flow's credit balance runs low, the
	// controller ECN-marks fast-path packets so the sender's CCA converges
	// with in-flight data just below the credit bound — before any LLC
	// overflow occurs. This is the "proactive" half of Table 1: the signal
	// fires ahead of misses, where HostCC's fires only after them.
	if st.cred.Available < c.lowWater() {
		p.Marked = true
	}
	return true
}

func (c *CEIO) ingressFast(st *flowState, p *pkt.Packet) {
	c.m.Trace(trace.KindFastPath, p.FlowID, p.Seq)
	if !c.m.ReserveHostBuf(p) {
		// Host buffer pool exhausted: un-admit and keep the packet in
		// on-NIC memory instead of dropping it — the elastic buffer also
		// absorbs host-side buffer shortage.
		c.unadmit(st)
		c.ingressSlow(st, p)
		return
	}
	p.Path = pkt.PathFast
	c.FastPackets++
	st.fastInFlight++
	c.m.DMAToHost(st.f, p)
}

// Landed implements iosys.Datapath: every CEIO DMA write is a fast-path
// packet.
func (c *CEIO) Landed(f *iosys.Flow, p *pkt.Packet) { c.fastLanded(f.DP.(*flowState), p) }

// unadmit returns the credit taken by admit when the fast path could not
// be used after all.
func (c *CEIO) unadmit(st *flowState) {
	if c.opt.MPQ {
		c.mpqReleaseOne()
		return
	}
	c.ctrl.Release(st.cred, 1)
}

// tenantInUse sums the fast-path credits currently in flight for the
// tenant at registry index idx. A flow's controller InUse count is
// exactly its in-flight fast-path packet population (Consume/Release/
// Reclaim mirror the packet lifecycle one to one), so the tenant's
// holdings are derived rather than double-booked — they cannot drift.
func (c *CEIO) tenantInUse(idx int) int {
	held := 0
	for _, st := range c.flows {
		if st.f.TenantIndex() == idx {
			held += st.cred.InUse
		}
	}
	return held
}

// tenantBudgetOK reports whether st's tenant may put another fast-path
// buffer in flight: its in-use credits must stay below its partition
// budget (partition bytes / buffer size — Eq. 1 per tenant). Untenanted
// machines, shared-mode tenancy, and the MPQ strawman are unbounded
// here (the global C_total already gates them).
func (c *CEIO) tenantBudgetOK(st *flowState) bool {
	reg := c.m.Tenants
	if reg == nil || !reg.Partitioned() {
		return true
	}
	idx := st.f.TenantIndex()
	return c.tenantInUse(idx) < reg.Credits(idx, iosys.IOBufSize)
}

// lowWater is the credit balance below which fast-path packets carry
// congestion marks (an eighth of the fair share, at least one buffer).
func (c *CEIO) lowWater() int {
	lw := c.ctrl.FairShare() / 8
	if lw < 1 {
		lw = 1
	}
	return lw
}

func (c *CEIO) fastLanded(st *flowState, p *pkt.Packet) {
	st.fastInFlight--
	if st.f.Removed() {
		// Torn down with the DMA write in flight: free the host buffer.
		c.m.Drop(st.f, p)
		return
	}
	if st.f.Kind == iosys.CPUBypass {
		// CPU-bypass fast path: the memory controller retires the packet.
		c.m.ConsumeBypass(st.f, p)
	} else {
		if !st.sw.PushFast(p) {
			panic("core: SW ring overflow on fast path (sizing bug)")
		}
	}
	if st.fastInFlight == 0 {
		c.flushWaitQ(st)
	}
}

func (c *CEIO) ingressSlow(st *flowState, p *pkt.Packet) {
	c.m.Trace(trace.KindSlowPath, p.FlowID, p.Seq)
	p.Path = pkt.PathSlow
	c.SlowPackets++
	if st.mode == pkt.PathFast {
		// Credits exhausted: update the steering rule so subsequent
		// packets divert without consulting the controller.
		st.mode = pkt.PathSlow
		c.m.Doorbell(st.f)
		c.setSteer(st, flowsteer.ActionSlowPath)
		c.m.Trace(trace.KindModeSlow, st.f.ID, p.Seq)
	}
	// CCA trigger (§4.1 Q2): when the on-NIC backlog shows that network
	// production outruns slow-path consumption, mark arriving packets so
	// the sender's CCA converges to the slow path's drain capacity.
	if st.onNIC >= SlowMarkDepth {
		p.Marked = true
		c.SlowMarks++
	}
	bufBytes := int64(iosys.IOBufSize)
	limit := c.m.Cfg.NICMemBytes
	if c.faultMode {
		// An injected on-NIC memory pressure episode shrinks the usable
		// elastic capacity. Shed gracefully: once occupancy nears the
		// (possibly reduced) limit, ECN-mark arrivals so senders back off
		// ahead of the hard drop threshold.
		limit = c.m.Faults.NICMemLimit(c.m.Eng.Now(), limit)
		if c.m.NICMemUsed+bufBytes > limit-limit/8 && !p.Marked {
			p.Marked = true
			c.PressureMarks++
		}
	}
	if c.m.NICMemUsed+bufBytes > limit {
		c.NICMemDrops++
		c.m.Drop(st.f, p)
		return
	}
	c.m.NICMemUsed += bufBytes
	st.onNIC++
	if st.f.Kind == iosys.CPUInvolved {
		st.slowUnpushed++
	}
	// Write into on-NIC DRAM.
	c.m.NICMem.SubmitArg(p.Size, ceioSlowArrived, c.getJob(st, p))
}

func ceioSlowArrived(arg any) {
	j := arg.(*ctrlJob)
	c, st, p := j.c, j.st, j.p
	c.jobs.Put(j)
	c.slowArrived(st, p)
}

func (c *CEIO) slowArrived(st *flowState, p *pkt.Packet) {
	if st.f.Removed() {
		// Flow torn down while the packet was in the on-NIC DRAM pipeline:
		// surrender its elastic bytes and drop.
		st.onNIC--
		c.m.NICMemUsed -= iosys.IOBufSize
		if st.f.Kind == iosys.CPUInvolved {
			st.slowUnpushed--
		}
		c.m.Drop(st.f, p)
		c.finishDrain(st)
		return
	}
	if st.f.Kind == iosys.CPUBypass {
		// Event-driven drain on the NIC cores (§4.1 Q2): keep ReadAhead
		// DMA reads outstanding without any host CPU involvement.
		st.waitQ.Push(p)
		c.drainBypass(st)
		return
	}
	st.waitQ.Push(p)
	c.m.Doorbell(st.f)
	if st.fastInFlight == 0 {
		c.flushWaitQ(st)
	}
}

// flushWaitQ moves on-NIC packets into the software ring as unready slow
// entries. Ordering: only when no earlier fast-path packet is still in
// flight (phase exclusivity keeps ring order equal to arrival order).
// Slow entries occupy at most half the ring so fast-path pushes can
// never fail.
func (c *CEIO) flushWaitQ(st *flowState) {
	if st.f.Kind == iosys.CPUBypass {
		return
	}
	for st.waitQ.Len() > 0 && st.fastInFlight == 0 && st.sw.Len() < st.sw.Cap()/2 {
		if _, ok := st.sw.PushSlow(st.waitQ.Peek()); !ok {
			break
		}
		st.waitQ.Pop()
		st.slowUnpushed--
	}
	c.maybeResumeFast(st)
}

// issueReads starts asynchronous DMA reads for unready slow entries, up
// to the read-ahead window (§4.2's async_recv overlap).
func (c *CEIO) issueReads(st *flowState) {
	budget := c.opt.ReadAhead - st.readsInFlight
	if budget <= 0 {
		return
	}
	st.pending = st.sw.AppendPendingSlow(st.pending[:0], budget+st.readsInFlight)
	for _, idx := range st.pending {
		if budget == 0 {
			break
		}
		e := st.sw.At(idx)
		if e.Pkt == nil || e.Ready {
			continue
		}
		if c.readStarted(st, e.Pkt) {
			if !c.issueRead(st, e.Pkt, contMarkReady, idx) {
				e.Pkt.Landed = false // host pool exhausted: retry on a later poll
				return
			}
			budget--
		}
	}
}

// readStarted marks a packet's read as issued exactly once, using the
// Landed flag as the "read in progress or done" indicator for slow-path
// packets.
func (c *CEIO) readStarted(st *flowState, p *pkt.Packet) bool {
	if p.Landed {
		return false
	}
	p.Landed = true
	return true
}

// issueRead performs one slow-path DMA read: on-NIC DRAM access (behind
// the internal PCIe switch) plus the PCIe round trip, then the host-side
// commit. cont selects the completion continuation (idx is its SW-ring
// operand). It reports false when no host buffer was available to land
// the data (the caller retries later).
func (c *CEIO) issueRead(st *flowState, p *pkt.Packet, cont uint8, idx uint64) bool {
	if !c.m.ReserveHostBuf(p) {
		return false
	}
	st.readsInFlight++
	c.startRead(st, p, cont, idx)
	return true
}

// startRead is one attempt of a slow-path read. A completion lost to an
// injected fault times out after ReadTimeout and the read is reissued;
// attempts are independent trials, so the retransmit loop terminates for
// any loss rate below one. Teardown during the read surrenders the
// packet's buffers instead of completing it.
func (c *CEIO) startRead(st *flowState, p *pkt.Packet, cont uint8, idx uint64) {
	c.m.Trace(trace.KindReadIssued, p.FlowID, p.Seq)
	device := c.m.Cfg.NICMemLatency + c.m.NICMem.QueueDelay()
	c.m.NICMem.Submit(p.Size) // on-NIC DRAM read bandwidth
	if c.m.Faults.LoseRead() {
		c.m.Eng.After(c.opt.ReadTimeout, func() {
			if st.f.Removed() {
				c.abortRead(st, p)
				return
			}
			c.ReadRetries++
			c.startRead(st, p, cont, idx)
		})
		return
	}
	j := c.getJob(st, p)
	j.cont, j.idx = cont, idx
	c.m.DMA.ReadTo(p.Size, device, ceioReadLanded, j)
}

// ceioReadLanded is the DMA-read completion trampoline: host-side
// accounting, then the continuation the issuer selected.
func ceioReadLanded(arg any) {
	j := arg.(*ctrlJob)
	c, st, p, cont, idx := j.c, j.st, j.p, j.cont, j.idx
	c.jobs.Put(j)
	if st.f.Removed() {
		c.abortRead(st, p)
		return
	}
	c.m.Uncore.Submit(p.Size) // host-side landing
	c.m.HostBufLanded(p)
	st.readsInFlight--
	st.onNIC--
	c.m.NICMemUsed -= iosys.IOBufSize
	switch cont {
	case contMarkReady:
		st.sw.MarkReady(idx)
	case contBypass:
		// Data landed in host DRAM; the consumer's post-processing
		// passes (replication/logging) gate delivery, then the drain
		// continues.
		c.m.Mem.BulkMoveArg(p.Size*(1+st.f.PostPasses), ceioBypassMoved, c.getJob(st, p))
	}
	c.maybeResumeFast(st)
}

func ceioBypassMoved(arg any) {
	j := arg.(*ctrlJob)
	c, st, p := j.c, j.st, j.p
	c.jobs.Put(j)
	c.m.Deliver(st.f, p)
	c.drainBypass(st)
}

// abortRead finishes an in-flight read whose flow was torn down: the
// on-NIC bytes, the reserved host buffer, and the read slot all return to
// their pools, and the packet is dropped.
func (c *CEIO) abortRead(st *flowState, p *pkt.Packet) {
	st.readsInFlight--
	st.onNIC--
	c.m.NICMemUsed -= iosys.IOBufSize
	c.m.Drop(st.f, p)
	c.finishDrain(st)
}

// drainBypass keeps the event-driven drain loop running for CPU-bypass
// flows. Without the async-drain optimisation the NIC cores fetch one
// packet at a time (Table 4's "w/o optimization" configuration).
func (c *CEIO) drainBypass(st *flowState) {
	if st.f.Removed() {
		return // teardown already surrendered the queue
	}
	limit := c.opt.ReadAhead
	if !c.opt.AsyncDrain {
		limit = 1
	}
	for st.readsInFlight < limit && st.waitQ.Len() > 0 {
		if !c.issueRead(st, st.waitQ.Peek(), contBypass, 0) {
			// Host pool exhausted: hold the queue and retry shortly
			// (bypass drains are event-driven, with no poll loop to
			// retry them).
			c.m.Eng.AfterArg(iosys.PollInterval*16, ceioDrainRetry, c.getJob(st, nil))
			return
		}
		st.waitQ.Pop()
	}
}

// ceioDrainRetry resumes a bypass drain stalled on the host pool.
func ceioDrainRetry(arg any) {
	j := arg.(*ctrlJob)
	c, st := j.c, j.st
	c.jobs.Put(j)
	c.drainBypass(st)
}

// Poll implements the CEIO driver's recv()/async_recv() path (§5): flush
// arrivals into the software ring, overlap slow-path DMA reads with
// application processing, and append ready packets in order to out. A
// flow that is neither quiescent nor paused keeps its core armed: its
// next poll may flush, read or resume without any landing.
func (c *CEIO) Poll(f *iosys.Flow, out []*pkt.Packet, max int) []*pkt.Packet {
	st, ok := f.DP.(*flowState)
	if !ok || st == nil {
		return out
	}
	c.flushWaitQ(st)
	if c.opt.AsyncDrain {
		c.issueReads(st)
	} else {
		// Synchronous access: fetch only when the consumer is blocked on
		// the head entry, one read at a time (the §4.2 strawman).
		if head := st.sw.PeekHead(); head != nil && head.Slow && !head.Ready && st.readsInFlight == 0 {
			if c.readStarted(st, head.Pkt) {
				st.pending = st.sw.AppendPendingSlow(st.pending[:0], 1)
				if len(st.pending) == 1 {
					if !c.issueRead(st, head.Pkt, contMarkReady, st.pending[0]) {
						head.Pkt.Landed = false
					}
				}
			}
		}
	}
	for ; max > 0; max-- {
		p := st.sw.PopReady()
		if p == nil {
			break
		}
		out = append(out, p)
	}
	if !st.quiescent() && !c.paused(st) {
		c.m.Doorbell(f)
	}
	return out
}

// quiescent reports whether polling st can do nothing until a fast-path
// landing: the flow is on the fast path with an empty wait queue and SW
// ring, so Poll has nothing to flush, read or pop. Leaving this state
// outside a landing (a switch to the slow path, a wait-queue append)
// rings the flow's doorbell.
func (st *flowState) quiescent() bool {
	return st.mode == pkt.PathFast && st.waitQ.Len() == 0 && st.sw.Len() == 0
}

// paused reports whether polling st can do nothing until an arrival or a
// credit refill: the flow waits on the slow path with an empty wait queue
// and SW ring, and cannot resume the fast path because it holds no
// credits (or the slow path is forced). Poll then has no side effect:
// flushWaitQ moves nothing, maybeResumeFast returns at its credit check,
// the read scan finds no entry and nothing pops. A wait-queue append
// rings the doorbell, and so does the controller when the account's
// balance rises from zero (CreditController.credit). The MPQ strawman
// keeps no per-flow balance, so its flows never pause.
func (c *CEIO) paused(st *flowState) bool {
	return !c.opt.MPQ && st.mode == pkt.PathSlow && st.waitQ.Len() == 0 && st.sw.Len() == 0 &&
		(st.cred.Available == 0 || c.opt.ForceSlowPath)
}

// OnDelivered performs lazy credit release: when the application finishes
// a message batch (MsgEnd), the fast-path credits its packets consumed
// return to the flow — and debts from Algorithm 1 are settled.
func (c *CEIO) OnDelivered(f *iosys.Flow, p *pkt.Packet) {
	st, ok := f.DP.(*flowState)
	if !ok || st == nil {
		return
	}
	if p.Path == pkt.PathFast {
		switch {
		case c.opt.MPQ:
			c.mpqReleaseOne()
			c.maybeResumeFast(st)
		case c.opt.LazyRelease:
			st.unreleased++
		default:
			c.release(st, 1)
			c.maybeResumeFast(st)
		}
	}
	if !c.opt.MPQ && c.opt.LazyRelease && p.MsgEnd && st.unreleased > 0 {
		c.release(st, st.unreleased)
		st.unreleased = 0
		c.maybeResumeFast(st)
	}
}

// release forwards n freed fast-path credits from the host driver to the
// NIC-side controller. Under fault injection the release message can be
// lost in transit — the credits then stay InUse until the reconciliation
// heartbeat notices the gap between releasesSent and releasesApplied and
// reclaims them. Fault-free it is exactly a CreditController.Release.
// A torn-down flow's stragglers reach only its retired account, where
// they are no-ops: teardown already reclaimed its in-use credits, and a
// flow that since reuses the ID holds a fresh account.
func (c *CEIO) release(st *flowState, n int) {
	if n <= 0 {
		return
	}
	st.releasesSent += uint64(n)
	if c.m.Faults != nil {
		kept := 0
		for i := 0; i < n; i++ {
			if c.m.Faults.LoseCreditRelease() {
				c.CreditLossEvents++
			} else {
				kept++
			}
		}
		n = kept
	}
	if n > 0 {
		st.releasesApplied += uint64(n)
		c.ctrl.Release(st.cred, n)
	}
}

// reconcileCredits is the self-healing heartbeat armed under fault
// injection: any gap between a flow's host-side release counter and the
// controller-side applied counter is leaked InUse credit from lost
// release messages. Left alone it would shrink the flow's working set
// permanently — with enough loss, wedging it on the slow path with no way
// back. Reclaiming the difference restores credit conservation and lets
// the flow resume the fast path.
func (c *CEIO) reconcileCredits() {
	for _, st := range c.flows {
		leak := int64(st.releasesSent) - int64(st.releasesApplied)
		if leak <= 0 {
			continue
		}
		if r := c.ctrl.ReclaimInUse(st.cred, int(leak)); r > 0 {
			st.releasesApplied += uint64(r)
			c.CreditsReclaimed += uint64(r)
			c.maybeResumeFast(st)
		}
	}
}

// ReconcileNow runs one credit-reconciliation pass immediately, outside
// the periodic heartbeat. The fleet migration handshake calls it on a
// crashed host before reclaiming the victim's flow state: any release
// messages lost in transit are replayed through the same ReclaimInUse
// path the heartbeat uses, so the credits a migrating flow hands back to
// the pool are exactly the credits Algorithm 1 granted it. No-op for the
// MPQ strawman, which has no per-flow ledger to reconcile.
func (c *CEIO) ReconcileNow() {
	if !c.opt.MPQ {
		c.reconcileCredits()
	}
}

// maybeResumeFast re-enables the fast path once the slow path has fully
// drained and the flow holds credits again (the phase-exclusivity rule of
// §4.2 that keeps the SW ring ordered).
func (c *CEIO) maybeResumeFast(st *flowState) {
	if st.f.Removed() || st.mode != pkt.PathSlow || c.opt.ForceSlowPath {
		return
	}
	if st.f.Kind == iosys.CPUInvolved {
		// The fast path may resume as soon as every slow packet occupies
		// its SW-ring slot: the ring is strict FIFO, so later fast-path
		// packets (pushed at DMA completion) cannot overtake them. This
		// is the phase-exclusivity rule of §4.2, applied at the ring
		// boundary rather than waiting for the physical drain to finish.
		if st.slowUnpushed != 0 || st.waitQ.Len() != 0 {
			return
		}
	} else {
		// CPU-bypass packets have no ordering ring: resume once every
		// on-NIC packet has its drain read committed to the pipeline.
		if st.onNIC != st.readsInFlight || st.waitQ.Len() != 0 {
			return
		}
	}
	if c.opt.MPQ {
		if c.ctrl.Total()-c.mpqInUse == 0 {
			return
		}
	} else if st.cred.Available == 0 {
		// Resuming without credits would demote again on the next packet,
		// thrashing the steering rule; wait for a release or grant.
		return
	}
	if !c.opt.MPQ && !c.tenantBudgetOK(st) {
		// The tenant's partition budget is still fully in flight:
		// resuming would demote again immediately. Wait for releases (or
		// for the repartitioner to grow the tenant). Not counted as a
		// reject — this is a gate, not an admission attempt.
		return
	}
	if !c.opt.MPQ && !c.coreBudgetOK(st) {
		// Likewise for the flow's rx-queue core: its share is still fully
		// in flight, so resuming would thrash the steering rule.
		return
	}
	st.mode = pkt.PathFast
	c.setSteer(st, flowsteer.ActionFastPath)
	c.m.Trace(trace.KindModeFast, st.f.ID, 0)
	c.Drains++
}

// scanActiveFlows implements the active-flow strategy (§4.1 Q3): recycle
// credits from inactive flows and from flows stuck on the slow path, then
// top active fast-path flows back up toward their fair share.
func (c *CEIO) scanActiveFlows() {
	nActive := 0
	for _, st := range c.flows {
		delivered := st.f.DeliveredCount()
		generated := st.f.Generated
		idle := delivered == st.deliveredAtScan && generated == st.generatedAtScan
		st.deliveredAtScan = delivered
		st.generatedAtScan = generated
		if idle {
			st.idleScans++
		} else {
			st.idleScans = 0
		}
		inactive := st.idleScans >= InactiveScans
		st.active = !inactive
		if st.active {
			nActive++
		}
		switch {
		case inactive:
			// Long-idle flows hold no credits at all (the paper's coarse
			// inactivity timer, scaled).
			c.ctrl.Recycle(st.cred)
		case st.mode == pkt.PathSlow:
			// Slow-path flows (more likely CPU-bypass) donate everything
			// above a small reserve kept for their return to the fast
			// path; the round-robin timer guarantees they come back.
			if extra := st.cred.Available - ReactivateQuota; extra > 0 {
				c.ctrl.Take(st.cred, extra)
			}
		}
	}
	// Top active fast-path flows up toward their fair share — computed
	// over *active* flows, so credits recycled from thousands of idle
	// queue pairs concentrate on the flows that carry traffic — then give
	// active slow-path flows their reserve quota.
	share := c.ctrl.Total()
	if nActive > 0 {
		share = c.ctrl.Total() / nActive
	}
	for _, st := range c.flows {
		if st.active && st.mode == pkt.PathFast && st.cred.Available < share {
			c.ctrl.Grant(st.cred, share-st.cred.Available)
		}
	}
	for _, st := range c.flows {
		if st.active && st.mode == pkt.PathSlow && st.cred.Available < ReactivateQuota {
			c.ctrl.Grant(st.cred, ReactivateQuota-st.cred.Available)
		}
	}
	// Move per-core shares toward the cores that carry the active flows,
	// the inter-core analogue of the per-flow top-up above.
	c.recarveCoreShares()
}

// reactivateRoundRobin is the backup fairness timer: it periodically
// grants a quota to the next slow-path flow so every flow gets an
// opportunity to return to the fast path.
func (c *CEIO) reactivateRoundRobin() {
	for range c.flows {
		c.rrCursor = (c.rrCursor + 1) % len(c.flows)
		st := c.flows[c.rrCursor]
		if st.mode != pkt.PathSlow {
			continue
		}
		c.ctrl.Grant(st.cred, ReactivateQuota)
		c.maybeResumeFast(st)
		return
	}
}

var _ iosys.Datapath = (*CEIO)(nil)
var _ iosys.FaultAware = (*CEIO)(nil)

// AuditCredits verifies that the live flows pair up index by index with
// the controller's live accounts, none retired, then both credit
// invariants: instantaneous pool conservation (pool + Σ accounts == total)
// and the lifetime consumption ledger (consumed == released + reclaimed +
// in-use).
func (c *CEIO) AuditCredits() error {
	if accts := c.ctrl.flows; len(c.flows) != len(accts) {
		return fmt.Errorf("core: %d live flows, %d live credit accounts", len(c.flows), len(accts))
	}
	for i, st := range c.flows {
		if st.cred != c.ctrl.flows[i] || st.cred.retired {
			return fmt.Errorf("core: live flow %d at %d does not hold the controller's live account there", st.f.ID, i)
		}
	}
	if err := c.ctrl.CheckInvariant(); err != nil {
		return err
	}
	return c.ctrl.CheckConservation()
}

// AuditDoorbells verifies Poll's doorbell contract: every live flow whose
// core is disarmed is quiescent or paused, so the polls the core skips
// could not have acted. Any other flow on a disarmed core missed a
// doorbell and sleeps through work its next poll would do.
func (c *CEIO) AuditDoorbells() error {
	for _, st := range c.flows {
		if core := st.f.Core(); core == nil || core.Armed() || st.quiescent() || c.paused(st) {
			continue
		}
		return fmt.Errorf("core: flow %d sits on a disarmed core but is neither quiescent nor paused: %s",
			st.f.ID, c.DebugFlow(st.f.ID))
	}
	return nil
}

// ReleaseGap returns host-reported credit releases the controller has not
// yet received or reclaimed, summed over live flows. It is nonzero only
// in the window between a lost release message and the next
// reconciliation heartbeat; a gap that persists across heartbeats means
// reconciliation is broken.
func (c *CEIO) ReleaseGap() int {
	g := 0
	for _, st := range c.flows {
		g += int(st.releasesSent - st.releasesApplied)
	}
	return g
}

// AuditElastic verifies elastic-buffer byte accounting: the machine's
// NICMemUsed must equal the on-NIC packet population — live flows plus
// torn-down flows still draining — times the I/O buffer size.
func (c *CEIO) AuditElastic() error {
	var onNIC int64
	for _, st := range c.flows {
		if st.onNIC < 0 || st.readsInFlight < 0 {
			return fmt.Errorf("flow %d negative elastic counts: onNIC=%d reads=%d",
				st.f.ID, st.onNIC, st.readsInFlight)
		}
		onNIC += int64(st.onNIC)
	}
	for st := range c.draining {
		onNIC += int64(st.onNIC)
	}
	want := onNIC * iosys.IOBufSize
	if c.m.NICMemUsed != want {
		return fmt.Errorf("elastic accounting drift: NICMemUsed=%d bytes, flows hold %d packets (%d bytes)",
			c.m.NICMemUsed, onNIC, want)
	}
	return nil
}

// RingViolations returns SW-ring protocol violations counted in
// fault-tolerant mode, across live and already-closed flows.
func (c *CEIO) RingViolations() uint64 {
	n := c.ringViolationsClosed
	for _, st := range c.flows {
		n += st.sw.Violations
	}
	return n
}

// Degraded returns the number of live flows pinned to the degraded slow
// path by steering-update fallback.
func (c *CEIO) Degraded() int {
	n := 0
	for _, st := range c.flows {
		if st.degraded {
			n++
		}
	}
	return n
}

// DebugFlow returns a one-line summary of a flow's elastic state
// (diagnostics and tests).
func (c *CEIO) DebugFlow(id int) string {
	f := c.m.Flows[id]
	if f == nil {
		return "<none>"
	}
	st := f.DP.(*flowState)
	return fmt.Sprintf("mode=%v avail=%d onNIC=%d waitQ=%d reads=%d swLen=%d unreleased=%d",
		st.mode, st.cred.Available, st.onNIC, st.waitQ.Len(), st.readsInFlight, st.sw.Len(), st.unreleased)
}

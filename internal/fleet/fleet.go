// Package fleet assembles a rack of simulated CEIO hosts behind a
// deterministic L4 load balancer. Every host steps its own sim.Engine
// (its shard), and all balancer↔host control traffic — health probes,
// drain notices, credit-replaying re-steers — crosses an explicit ToR
// switch model (internal/fabric) with per-port bandwidth, a shared
// tail-drop buffer, and round-robin egress arbitration, replacing the
// zero-cost hop of the single-engine rack. Shards advance between
// lockstep barriers on a grid of the fabric's propagation delay (the
// classic conservative-lookahead argument: no frame can arrive sooner
// than one propagation delay after it was sent), and every cross-shard
// frame is sequenced through the switch at a barrier in canonical
// (time, source, sequence) order — so a rack stepped by 8 workers is
// byte-identical to the same rack stepped serially, and the host count
// can scale to 64 with each shard's cache-resident working set staying
// private to one worker. The same lookahead argument, applied to
// next-event times instead of one fixed quantum, lets the rack execute
// only the grid points where a frame, a switch completion, a fault
// edge or an audit can land: the rest are provably empty and skipped.
// Flows are placed by rendezvous (highest-random-weight)
// consistent hashing; when a host_crash episode fires, the balancer
// detects the missed heartbeats, drains the dead host's flows through a
// loss-tolerant two-phase handshake (drain, then establish — each leg
// idempotent, timed out, and retried with bounded backoff), re-steers
// them to survivors, and rebalances when the host returns. This is the
// rack-scale "last mile" the CEIO paper (§7) and RDCA leave open:
// per-host cache-aware admission is only production-credible if the
// NIC-CPU path stays stable when a host dies mid-window — or when the
// rack fabric itself flaps a port or loses capacity.
package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"ceio/internal/core"
	"ceio/internal/fabric"
	"ceio/internal/faults"
	"ceio/internal/invariants"
	"ceio/internal/iosys"
	"ceio/internal/runner"
	"ceio/internal/sim"
	"ceio/internal/stats"
	"ceio/internal/telemetry"
	"ceio/internal/workload"
)

// Fixed parameters of the balancer's failure detector and migration
// handshake.
const (
	// ProbeMiss consecutive missed probes declare a host dead.
	ProbeMiss = 3
	// ProbeRise consecutive answered probes revive a declared-dead host.
	ProbeRise = 2
	// HandshakeTimeout is how long the balancer waits for a drain or
	// establish acknowledgement before retrying — the loss recovery for
	// control frames the fabric tail-dropped or a flapped port ate.
	HandshakeTimeout = 25 * sim.Microsecond
)

// Config describes a rack. The zero value is not runnable; start from
// DefaultConfig.
type Config struct {
	// Hosts is the rack size.
	Hosts int
	// Machine is the per-host configuration (every host runs the same
	// hardware model; Machine.FaultPlan, when set, arms the same chaos
	// plan on every host unless Plans overrides it).
	Machine iosys.Config
	// Method is the I/O architecture every host runs.
	Method workload.Method

	// ProbePeriod is the balancer's health-probe interval.
	ProbePeriod sim.Time
	// DrainDeadline bounds how long a dead host's flow may remain
	// unplaced before the flow-lost-after-drain invariant flags it.
	DrainDeadline sim.Time
	// MigrationRTT is the balancer's think time before the first
	// handshake leg of a migration leaves (the wire latency itself now
	// comes from the fabric).
	MigrationRTT sim.Time
	// RetryBase is the bounded-backoff base for failed migration
	// attempts (attempt k waits RetryBase << k-1).
	RetryBase sim.Time
	// RetryLimit caps migration attempts per flow; past it the flow is
	// stranded until a host revival rescues it.
	RetryLimit int

	// Fabric is the ToR switch model all balancer↔host traffic crosses.
	// Ports must cover Hosts+1: host i attaches to port i and the
	// balancer to port Hosts. Fabric.PropDelay doubles as the lockstep
	// epoch length (the conservative lookahead).
	Fabric fabric.Config

	// Pool, when non-nil, steps host shards in parallel within each
	// epoch. A nil pool steps them serially inline; the two are
	// byte-identical. Call RunFor only from a goroutine that is not
	// itself a worker of the same pool.
	Pool *runner.Pool

	// Plans are per-host fault plans (Plans[i] arms host i). A shorter
	// slice leaves the remaining hosts fault-free; a zero-valued entry
	// keeps Machine.FaultPlan for that host. port_flap and fabric_cut
	// episodes act on the shared fabric, applied at epoch barriers.
	Plans []faults.Plan
}

// DefaultConfig returns a runnable rack configuration of the given size
// and architecture over the paper-calibrated machine.
func DefaultConfig(hosts int, method workload.Method) Config {
	return Config{
		Hosts:         hosts,
		Machine:       iosys.DefaultConfig(),
		Method:        method,
		ProbePeriod:   100 * sim.Microsecond,
		DrainDeadline: sim.Millisecond,
		MigrationRTT:  2 * sim.Microsecond,
		RetryBase:     20 * sim.Microsecond,
		RetryLimit:    6,
		Fabric:        fabric.DefaultConfig(hosts + 1),
	}
}

// Validate reports structurally invalid rack configurations.
func (c Config) Validate() error {
	checks := []struct {
		ok   bool
		what string
	}{
		{c.Hosts >= 1, "Hosts >= 1"},
		{c.ProbePeriod > 0, "ProbePeriod > 0"},
		{c.DrainDeadline > 0, "DrainDeadline > 0"},
		{c.MigrationRTT >= 0, "MigrationRTT >= 0"},
		{c.RetryBase > 0, "RetryBase > 0"},
		{c.RetryLimit >= 0, "RetryLimit >= 0"},
		{c.Fabric.Ports >= c.Hosts+1, "Fabric.Ports >= Hosts+1"},
		{len(c.Plans) <= c.Hosts, "len(Plans) <= Hosts"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("fleet: invalid config: %s", ch.what)
		}
	}
	if _, err := workload.ParseMethod(string(c.Method)); err != nil {
		return fmt.Errorf("fleet: invalid config: %w", err)
	}
	if err := c.Fabric.Validate(); err != nil {
		return fmt.Errorf("fleet: invalid config: %w", err)
	}
	return nil
}

// Control-frame sizes on the fabric (bytes on the wire).
const (
	probeBytes        = 64  // heartbeat request and reply
	drainReqBytes     = 128 // drain notice
	drainAckBytes     = 256 // drain ack, carrying replayed credit state
	establishReqBytes = 512 // re-steer commit with the full flow spec
	establishAckBytes = 64
)

// msgKind discriminates the control frames on the fabric.
type msgKind uint8

const (
	kProbeReq msgKind = iota
	kProbeRep
	kDrainReq
	kDrainAck
	kEstablishReq
	kEstablishAck
)

// netMsg is one control frame's payload. seq carries the probe sequence
// number on probes and the migration epoch on handshake legs; tries
// stamps each handshake transmission so a stale (superseded) reply is
// ignored without a second placement ever being committed.
type netMsg struct {
	kind  msgKind
	flow  int
	seq   uint64
	tries uint64
	ok    bool
	spec  iosys.FlowSpec
}

// outMsg is one frame waiting in a shard's outbox for the next barrier.
type outMsg struct {
	at       sim.Time
	src, dst int
	bytes    int
	m        netMsg
}

// inMsg is one frame the switch delivered to a shard, waiting in the
// shard's inbox for its delivery event. A barrier pushes into the inbox
// in the switch's canonical (time, destination, injection) order and
// schedules one delivery event per frame; each event pops the head, so
// the head is always the shard's earliest pending delivery.
type inMsg struct {
	at  sim.Time
	src int
	m   netMsg
}

// Host is one rack member: a full simulated machine on its own shard
// engine, plus the balancer's health bookkeeping about it. Fields split
// by writer — shard-owned fields are touched only by events on h.M.Eng,
// balancer-owned fields only by the control shard, and mirrors only at
// epoch barriers — so parallel shard stepping is race-free.
type Host struct {
	Index int
	M     *iosys.Machine
	Inj   *faults.Injector // nil when the host runs fault-free

	out []outMsg         // shard outbox, drained at each barrier
	in  sim.Queue[inMsg] // frames the switch delivered, awaiting their event

	// Shard-owned ground truth.
	down      bool
	crashedAt sim.Time
	local     map[int]bool // flows installed on this machine

	// Balancer-owned probe state.
	live     bool
	missed   int
	good     int
	probeSeq uint64
	awaiting bool
	sentOnce bool

	// Barrier-written mirror of shard ground truth, safe for the
	// control shard to read mid-epoch.
	crashedAtMirror sim.Time

	// Fabric-degrade episode state applied so far (barrier-owned).
	flapApplied bool
	cutApplied  bool
}

// Down reports ground truth: the host's crash window is open. Callers
// outside the host's own shard should only read this between runs.
func (h *Host) Down() bool { return h.down }

// Live reports the balancer's view of the host.
func (h *Host) Live() bool { return h.live }

// send queues a frame from this host's fabric port.
func (h *Host) send(dst, bytes int, m netMsg) {
	h.out = append(h.out, outMsg{at: h.M.Eng.Now(), src: h.Index, dst: dst, bytes: bytes, m: m})
}

// sortedLocal returns the IDs of flows installed on this machine, in
// ascending order (shard-deterministic iteration).
func (h *Host) sortedLocal() []int {
	ids := make([]int, 0, len(h.local))
	for id := range h.local {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// scheduleCrash arms the next crash edge of the host_crash episode on
// the host's own shard.
func (h *Host) scheduleCrash(ep faults.Episode) {
	h.M.Eng.At(ep.NextStart(h.M.Eng.Now()), func() { h.crash(ep) })
}

// crash fires a host-crash edge: the host stops generating (its flows
// pause; in-flight DMA drains, as a real NIC's posted writes do) and
// probes to it go unanswered. The matching recover edge is scheduled at
// the episode window's end.
func (h *Host) crash(ep faults.Episode) {
	if h.down {
		return
	}
	h.down = true
	h.crashedAt = h.M.Eng.Now()
	h.Inj.NoteHostCrash()
	for _, id := range h.sortedLocal() {
		h.M.PauseFlow(id)
	}
	h.M.Eng.At(ep.EndAt(h.M.Eng.Now()), func() { h.recover(ep) })
}

// recover fires the host-recover edge: every flow still installed
// resumes generating (flows mid-migration are torn down anyway when the
// drain notice lands), and the episode's next window is armed.
func (h *Host) recover(ep faults.Episode) {
	if !h.down {
		return
	}
	h.down = false
	h.Inj.NoteHostRecover()
	for _, id := range h.sortedLocal() {
		h.M.ResumeFlow(id)
	}
	h.scheduleCrash(ep)
}

// placement is the balancer's record of one flow.
type placement struct {
	spec      iosys.FlowSpec
	host      int
	victim    int // host the flow is being failed away from
	target    int // fixed establish target once drained (-1 = unchosen)
	migrating bool
	rebalance bool // graceful move back to a revived home, not failover
	drained   bool // the drain leg completed; the old copy is gone
	drainSent bool // a drain notice may be in flight
	deadline  sim.Time
	attempts  int
	tries     uint64 // transmission stamp; bumped to invalidate timeouts
	epoch     uint64 // stale retry guard across re-declarations
}

// Stats counts balancer events over the run.
type Stats struct {
	Crashes, Recovers        uint64 // ground-truth episode edges
	ProbesSent, ProbesMissed uint64
	Deaths, Revivals         uint64 // balancer declarations
	Migrations               uint64 // failover re-steers completed
	MigrationRetries         uint64
	Rebalances               uint64 // graceful moves back after revival
	Stranded                 uint64 // retry budgets exhausted (rescuable)
}

// Fleet is the rack: sharded hosts, the control shard (balancer), the
// ToR switch, and fleet-level telemetry. Construct with New. RunFor
// drives the lockstep epochs; all other methods must run between epochs
// (setup, teardown, or reporting).
type Fleet struct {
	Cfg Config
	// Eng is the control shard's engine: the balancer's probes, timers,
	// and handshake logic run here.
	Eng *sim.Engine
	// SW is the rack's ToR switch.
	SW *Switch

	hosts   []*Host
	ctlOut  []outMsg
	ctlIn   sim.Queue[inMsg]
	ctlPort int
	// merge is the barrier's reused buffer for sequencing every outbox.
	merge []outMsg
	// placed is PlacedFlowIDs' reused result buffer.
	placed []int

	// scout makes the next ctlSend stop the control engine: the planner
	// runs the control shard ahead to find its first frame of the epoch.
	scout bool
	// epochEnd is the barrier the host shards are being stepped to;
	// stepHost, deliverHost and deliverCtl are bound once so an epoch
	// allocates no closures.
	epochEnd    sim.Time
	stepHost    func(i int)
	deliverHost func(any)
	deliverCtl  func(any)

	placement map[int]*placement
	flowIDs   []int // every placed flow ID, ascending; kept sorted on placement
	expected  []int // per-host C_total captured at construction

	now      sim.Time // last barrier
	epochLen sim.Time // conservative lookahead = Fabric.PropDelay
	// barriers counts executed barriers, skipped the epoch-grid points
	// the planner proved empty and jumped over.
	barriers, skipped uint64

	audit       *invariants.FleetAuditor
	auditPeriod sim.Time
	auditNext   sim.Time

	// Stats counts balancer events; read-only for observers.
	Stats Stats
	// TTR records crash-to-re-steered time per failover-migrated flow.
	TTR stats.Histogram

	// Reg is the fleet-level telemetry registry (fleet.* and fabric.*
	// series); every host keeps its own machine registry at
	// HostMachine(i).Reg.
	Reg *telemetry.Registry
}

// Switch is the rack's ToR switch model, carrying control frames by
// value.
type Switch = fabric.Switch[netMsg]

// hostSeed spreads the configured seed across shards so no two hosts
// share an RNG stream (a fixed odd stride keeps it deterministic).
func hostSeed(base int64, i int) int64 { return base + int64(i)*1_000_003 }

// New builds the rack — one engine per host, the control engine, and
// the ToR switch — and starts the balancer's probe ticker. Hosts are
// constructed in index order, so construction order, and therefore
// every event seed, is deterministic.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sw, err := fabric.New[netMsg](cfg.Fabric)
	if err != nil {
		return nil, fmt.Errorf("fleet: building fabric: %w", err)
	}
	f := &Fleet{
		Cfg:       cfg,
		Eng:       sim.NewEngine(hostSeed(cfg.Machine.Seed, cfg.Hosts)),
		SW:        sw,
		ctlPort:   cfg.Hosts,
		placement: make(map[int]*placement),
		expected:  make([]int, cfg.Hosts),
		epochLen:  cfg.Fabric.PropDelay,
	}
	f.stepHost = func(i int) { f.hosts[i].M.Eng.RunUntil(f.epochEnd) }
	f.deliverHost = func(arg any) {
		h := arg.(*Host)
		f.hostRecv(h, h.in.Pop().m)
	}
	f.deliverCtl = func(any) {
		d := f.ctlIn.Pop()
		f.ctlRecv(d.src, d.m)
	}
	for i := 0; i < cfg.Hosts; i++ {
		mcfg := cfg.Machine
		mcfg.Seed = hostSeed(cfg.Machine.Seed, i)
		if i < len(cfg.Plans) && (cfg.Plans[i] != faults.Plan{}) {
			plan := cfg.Plans[i]
			mcfg.FaultPlan = &plan
		}
		m, err := iosys.NewMachineE(mcfg, workload.NewDatapath(cfg.Method))
		if err != nil {
			return nil, fmt.Errorf("fleet: building host %d: %w", i, err)
		}
		h := &Host{Index: i, M: m, Inj: m.Faults, live: true, local: make(map[int]bool)}
		if dp, ok := m.DP.(*core.CEIO); ok {
			f.expected[i] = dp.Controller().Total()
		}
		f.hosts = append(f.hosts, h)
		if ep := h.Inj.HostCrash(); ep.Enabled() {
			h.scheduleCrash(ep)
		}
	}
	f.registerMetrics()
	f.SW.RegisterMetrics(f.Reg)
	f.Eng.Every(cfg.ProbePeriod, cfg.ProbePeriod, f.probeTick)
	return f, nil
}

// ctlSend queues a frame from the balancer's fabric port. While the
// planner scouts the control shard, the first frame also stops the
// engine: its timestamp decides the epoch's barrier.
func (f *Fleet) ctlSend(dst, bytes int, m netMsg) {
	f.ctlOut = append(f.ctlOut, outMsg{at: f.Eng.Now(), src: f.ctlPort, dst: dst, bytes: bytes, m: m})
	if f.scout {
		f.scout = false
		f.Eng.Stop()
	}
}

// --- lockstep epochs ------------------------------------------------------

// epochGrid is the barrier grid of one RunFor call: from + k·step,
// clipped at end.
type epochGrid struct {
	from, end, step sim.Time
}

// ceil returns the first grid point at or after x that lies after the
// last barrier now, clipped at end.
func (g epochGrid) ceil(now, x sim.Time) sim.Time {
	if x >= g.end {
		return g.end
	}
	if x <= now {
		x = now + 1
	}
	return min(g.from+(x-g.from+g.step-1)/g.step*g.step, g.end)
}

// prev returns the last grid point strictly before barrier t: where a
// dense run would have held its previous barrier.
func (g epochGrid) prev(t sim.Time) sim.Time {
	return g.from + (t-g.from-1)/g.step*g.step
}

// never is the planner's "no pending event" time.
const never = sim.Time(math.MaxInt64)

// RunFor advances the whole rack by d. Barriers lie on the grid of one
// fabric propagation delay from the current time (clipped at the end),
// but only the grid points where something can happen are executed:
// nextBarrier jumps over the rest, which a dense stepper would have
// spent on barriers with nothing to do.
func (f *Fleet) RunFor(d sim.Time) {
	g := epochGrid{from: f.now, end: f.now + d, step: f.epochLen}
	for f.now < g.end {
		f.runEpoch(g, f.nextBarrier(g))
	}
}

// Now returns the rack's simulated clock (the last epoch barrier).
func (f *Fleet) Now() sim.Time { return f.now }

// EventsProcessed sums executed events across every shard engine.
func (f *Fleet) EventsProcessed() uint64 {
	n := f.Eng.Processed
	for _, h := range f.hosts {
		n += h.M.Eng.Processed
	}
	return n
}

// nextBarrier plans the next barrier: the first grid point at or after
// the earliest time any of these can happen —
//   - a host shard receives a frame (the head of its inbox; hosts send
//     only in reply to a frame, so nothing else bounds them);
//   - a switch service completes (SW.NextEventAt);
//   - the fleet auditor is due;
//   - a host_crash, port_flap or fabric_cut episode crosses an edge;
//   - the control shard queues a frame.
//
// The control shard sends from timers as well as from deliveries, so
// its bound is found by running it: the planner steps the control
// engine toward the bound of the other four, and ctlSend stops it on
// the first frame. The rest of that shard's epoch runs in runEpoch.
func (f *Fleet) nextBarrier(g epochGrid) sim.Time {
	next := never
	if at, ok := f.SW.NextEventAt(); ok {
		next = at
	}
	if f.audit != nil {
		next = min(next, f.auditNext)
	}
	for _, h := range f.hosts {
		if h.in.Len() > 0 {
			next = min(next, h.in.Peek().at)
		}
		if h.Inj != nil {
			flap, _ := h.Inj.PortFlap()
			cut, _ := h.Inj.FabricCut()
			next = min(next, nextEdge(h.Inj.HostCrash(), f.now), nextEdge(flap, f.now), nextEdge(cut, f.now))
		}
	}
	t := g.ceil(f.now, next)
	f.scout = true
	f.Eng.RunUntil(t)
	f.scout = false
	if len(f.ctlOut) > 0 {
		t = g.ceil(f.now, f.ctlOut[0].at)
	}
	return t
}

// nextEdge returns the first start or end of an ep window after t
// (never for a disabled episode).
func nextEdge(ep faults.Episode, t sim.Time) sim.Time {
	if !ep.Enabled() {
		return never
	}
	if ep.ActiveAt(t) {
		return ep.EndAt(t)
	}
	return ep.NextStart(t + 1)
}

// runEpoch steps every shard to the barrier t — the host shards in
// parallel when a pool is configured — then sequences the epoch's
// cross-shard frames through the switch. Shards are independent within
// an epoch because no frame can be delivered sooner than one
// propagation delay after injection, and t is at most one grid step
// past the first frame any shard sends.
func (f *Fleet) runEpoch(g epochGrid, t sim.Time) {
	f.Eng.RunUntil(t)
	f.epochEnd = t
	f.Cfg.Pool.Do(len(f.hosts), f.stepHost)
	prev := g.prev(t)
	f.barriers++
	f.skipped += uint64((prev - f.now) / f.epochLen)
	f.now = t
	f.barrier(prev, t)
}

// barrier is the serial tail of an epoch: fold ground-truth stats into
// balancer mirrors, apply fabric-degrade episode edges, sequence every
// outbox frame through the switch in canonical (time, source, sequence)
// order, advance the switch to the barrier, and push the drained
// deliveries into their destination shards' inboxes. Every step is
// deterministic and independent of how the shards were scheduled.
//
// prev is the grid point before t. The planner skipped every grid point
// after the last executed barrier up to prev because none of them had
// anything to do, so the switch is advanced to prev first: that leaves
// its clock where a dense run's previous barrier left it, and a port
// coming back up restarts service at exactly that time.
func (f *Fleet) barrier(prev, t sim.Time) {
	var crashes, recovers uint64
	for _, h := range f.hosts {
		if h.Inj != nil {
			crashes += h.Inj.Stats.HostCrashes
			recovers += h.Inj.Stats.HostRecovers
		}
		h.crashedAtMirror = h.crashedAt
	}
	f.Stats.Crashes, f.Stats.Recovers = crashes, recovers

	f.SW.AdvanceTo(prev)
	f.applyFabricFaults(t)

	all := f.merge[:0]
	for _, h := range f.hosts {
		all = f.mergeOutbox(all, h.out, prev, t)
		h.out = h.out[:0]
	}
	all = f.mergeOutbox(all, f.ctlOut, prev, t)
	f.ctlOut = f.ctlOut[:0]
	// Stable sort on (time, source): per-shard outboxes are already in
	// time order, so stability preserves each source's FIFO.
	slices.SortStableFunc(all, func(a, b outMsg) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.src, b.src)
	})
	for _, om := range all {
		// A false return is a tail drop or a dark port: the frame is
		// gone, and the handshake timeouts (or the next probe) recover.
		f.SW.Inject(om.at, fabric.Msg[netMsg]{Src: om.src, Dst: om.dst, Bytes: om.bytes, Payload: om.m})
	}
	clear(all) // drop payload references until the next epoch reuses it
	f.merge = all[:0]
	f.SW.AdvanceTo(t)
	for _, d := range f.SW.Drain() {
		in := inMsg{at: d.At, src: d.Msg.Src, m: d.Msg.Payload}
		if d.Msg.Dst == f.ctlPort {
			f.ctlIn.Push(in)
			f.Eng.AtArg(d.At, f.deliverCtl, nil)
		} else {
			h := f.hosts[d.Msg.Dst]
			h.in.Push(in)
			h.M.Eng.AtArg(d.At, f.deliverHost, h)
		}
	}

	if f.audit != nil && t >= f.auditNext {
		f.audit.SweepAt(t)
		for f.auditNext <= t {
			f.auditNext += f.auditPeriod
		}
	}
}

// mergeOutbox appends one shard's outbox to the barrier's merge buffer.
// It is also the lookahead guard: a frame stamped at or before prev
// belonged to a barrier the planner skipped, so some sender escaped the
// planner's bounds and the run can no longer match dense stepping.
func (f *Fleet) mergeOutbox(all, out []outMsg, prev, t sim.Time) []outMsg {
	if len(out) > 0 && out[0].at <= prev {
		shard := "control shard"
		if src := out[0].src; src != f.ctlPort {
			shard = fmt.Sprintf("host shard %d", src)
		}
		panic(fmt.Sprintf("fleet: %s sent a frame at %v, at or before the skipped grid point %v (barrier %v)",
			shard, out[0].at, prev, t))
	}
	return append(all, out...)
}

// applyFabricFaults applies port_flap and fabric_cut episode edges,
// quantized to epoch barriers (the fabric is stepped only at barriers,
// so finer resolution would be unobservable anyway).
func (f *Fleet) applyFabricFaults(t sim.Time) {
	for _, h := range f.hosts {
		if h.Inj == nil {
			continue
		}
		if ep, port := h.Inj.PortFlap(); ep.Enabled() && port < f.Cfg.Fabric.Ports {
			if down := ep.ActiveAt(t); down != h.flapApplied {
				h.flapApplied = down
				f.SW.SetPortDown(port, down)
				if down {
					h.Inj.NotePortFlap()
				}
			}
		}
		if ep, factor := h.Inj.FabricCut(); ep.Enabled() && factor > 0 {
			if cut := ep.ActiveAt(t); cut != h.cutApplied {
				h.cutApplied = cut
				if cut {
					f.SW.SetCapacityFactor(factor)
					h.Inj.NoteFabricCut()
				} else {
					f.SW.SetCapacityFactor(1)
				}
			}
		}
	}
}

// --- shard receive handlers ----------------------------------------------

// hostRecv processes a control frame on the host's shard. Drain and
// establish run on the management path, which outlives a crash window —
// a dead host's NIC still answers the fenced teardown, as the paper's
// failover story (and any real ToR-managed rack) requires — while data
// probes go unanswered.
func (f *Fleet) hostRecv(h *Host, m netMsg) {
	switch m.kind {
	case kProbeReq:
		if h.down {
			return // heartbeat blackout: this is what the balancer detects
		}
		h.send(f.ctlPort, probeBytes, netMsg{kind: kProbeRep, seq: m.seq})
	case kDrainReq:
		// Idempotent: a retried drain for an already-gone flow just acks.
		if h.local[m.flow] {
			// Credit replay before teardown: any release messages the dying
			// host never delivered go through the reconciliation path, so
			// the teardown returns exactly the credits Algorithm 1 granted
			// and fleet credit conservation holds across the move.
			if dp, ok := h.M.DP.(*core.CEIO); ok {
				dp.ReconcileNow()
			}
			h.M.RemoveFlow(m.flow)
			delete(h.local, m.flow)
		}
		h.send(f.ctlPort, drainAckBytes, netMsg{kind: kDrainAck, flow: m.flow, seq: m.seq, tries: m.tries})
	case kEstablishReq:
		// Idempotent: a duplicate establish (lost ack, retried) finds the
		// flow already installed and re-acks success.
		ok := true
		if !h.local[m.flow] {
			if _, err := h.M.AddFlowE(m.spec); err != nil {
				ok = false
			} else {
				h.local[m.flow] = true
				if h.down {
					// Steered onto a host whose crash window is open:
					// traffic blackholes until probes notice.
					h.M.PauseFlow(m.flow)
				}
			}
		}
		h.send(f.ctlPort, establishAckBytes,
			netMsg{kind: kEstablishAck, flow: m.flow, seq: m.seq, tries: m.tries, ok: ok})
	}
}

// ctlRecv processes a frame arriving at the balancer's port.
func (f *Fleet) ctlRecv(src int, m netMsg) {
	switch m.kind {
	case kProbeRep:
		if src < len(f.hosts) {
			h := f.hosts[src]
			if m.seq == h.probeSeq {
				h.awaiting = false
			}
		}
	case kDrainAck:
		f.onDrainAck(m)
	case kEstablishAck:
		f.onEstablishAck(src, m)
	}
}

// --- balancer: probes and declarations -----------------------------------

// probeTick is the balancer's health sweep: score last tick's probe
// (unanswered = miss), then send this tick's, one per host in index
// order. ProbeMiss consecutive misses declare a host dead, ProbeRise
// consecutive answers revive it. Misses now cover real crashes AND
// fabric loss — a flapped port blackholes heartbeats just like a dead
// host, which is precisely how a real rack's failure detector behaves.
func (f *Fleet) probeTick() {
	for _, h := range f.hosts {
		if h.sentOnce {
			if h.awaiting {
				f.Stats.ProbesMissed++
				h.good = 0
				h.missed++
				if h.live && h.missed >= ProbeMiss {
					f.declareDead(h)
				}
			} else {
				h.missed = 0
				if !h.live {
					h.good++
					if h.good >= ProbeRise {
						f.declareLive(h)
					}
				}
			}
		}
		h.probeSeq++
		h.awaiting = true
		h.sentOnce = true
		f.Stats.ProbesSent++
		f.ctlSend(h.Index, probeBytes, netMsg{kind: kProbeReq, seq: h.probeSeq})
	}
}

// declareDead marks h dead in the balancer's view and starts draining
// its flows: each gets a drain deadline and a migration handshake
// scheduled one control think-time out.
func (f *Fleet) declareDead(h *Host) {
	h.live = false
	f.Stats.Deaths++
	now := f.Eng.Now()
	for _, id := range f.flowsOn(nil, h.Index) {
		p := f.placement[id]
		p.migrating = true
		p.rebalance = false
		p.victim = h.Index
		p.deadline = now + f.Cfg.DrainDeadline
		f.armMigration(id, p)
	}
}

// declareLive revives h in the balancer's view: stranded migrations are
// rescued (a survivor exists again) and flows whose rendezvous home is
// the revived host move back gracefully.
func (f *Fleet) declareLive(h *Host) {
	h.live = true
	h.good, h.missed = 0, 0
	f.Stats.Revivals++
	now := f.Eng.Now()
	for _, id := range f.flowIDs {
		p := f.placement[id]
		switch {
		case p.migrating:
			// Stranded or still retrying: restart the handshake against
			// the enlarged survivor set. The original deadline stands —
			// rescue does not forgive a blown drain bound.
			f.armMigration(id, p)
		case p.host != h.Index && f.pickHost(id) == h:
			p.migrating = true
			p.rebalance = true
			p.victim = p.host
			p.deadline = now + f.Cfg.DrainDeadline
			f.armMigration(id, p)
		}
	}
}

// --- balancer: migration handshake ---------------------------------------

// armMigration schedules the next migration attempt one control
// think-time out, invalidating older scheduled attempts and in-flight
// replies via the epoch. Drain progress (drained/target) survives a
// re-arm: a flow already torn off its victim must not be drained twice,
// and an establish already committed to a target must finish or fail
// against that same target before any other host is tried.
func (f *Fleet) armMigration(id int, p *placement) {
	p.attempts = 0
	p.epoch++
	p.tries++
	epoch := p.epoch
	f.Eng.After(f.Cfg.MigrationRTT, func() { f.tryMigrate(id, epoch) })
}

// tryMigrate runs one step of the two-phase migration handshake: drain
// the suspected holder, then establish on a rendezvous-chosen survivor.
// Both legs are idempotent frames over the fabric with timeouts, so a
// tail-dropped or flap-eaten leg retries with bounded backoff.
func (f *Fleet) tryMigrate(id int, epoch uint64) {
	p := f.placement[id]
	if p == nil || !p.migrating || p.epoch != epoch {
		return
	}
	if !p.drained {
		// Resume-in-place fast path: the home revived before any drain
		// notice left, so the flow never moved; host-local recovery
		// already resumed its generator.
		if !p.drainSent {
			if t := f.pickHost(id); t != nil && t.Index == p.host {
				p.migrating = false
				f.recordTTR(p)
				return
			}
		}
		f.sendDrain(id, p)
		return
	}
	if p.target < 0 {
		t := f.pickHost(id)
		if t == nil {
			f.retryMigrate(id, p) // no live host anywhere: back off
			return
		}
		p.target = t.Index
	}
	f.sendEstablish(id, p)
}

// sendDrain transmits the drain leg to the flow's current holder and
// arms its loss timeout.
func (f *Fleet) sendDrain(id int, p *placement) {
	p.drainSent = true
	p.tries++
	epoch, tries := p.epoch, p.tries
	f.ctlSend(p.host, drainReqBytes, netMsg{kind: kDrainReq, flow: id, seq: epoch, tries: tries})
	f.Eng.After(HandshakeTimeout, func() {
		if p.migrating && p.epoch == epoch && p.tries == tries {
			f.retryMigrate(id, p)
		}
	})
}

// sendEstablish transmits the establish leg to the fixed target and
// arms its loss timeout. If the target has since been declared dead the
// timeout demotes it to suspected holder and restarts from drain —
// the only way to re-pick without ever risking a double placement.
func (f *Fleet) sendEstablish(id int, p *placement) {
	p.tries++
	epoch, tries := p.epoch, p.tries
	f.ctlSend(p.target, establishReqBytes,
		netMsg{kind: kEstablishReq, flow: id, seq: epoch, tries: tries, spec: p.spec})
	f.Eng.After(HandshakeTimeout, func() {
		if !p.migrating || p.epoch != epoch || p.tries != tries {
			return
		}
		if p.target >= 0 && !f.hosts[p.target].live {
			p.host = p.target
			p.target = -1
			p.drained = false
		}
		f.retryMigrate(id, p)
	})
}

// onDrainAck advances the handshake past the drain leg: the old copy is
// gone, so choosing and committing to an establish target is now safe.
func (f *Fleet) onDrainAck(m netMsg) {
	p := f.placement[m.flow]
	if p == nil || !p.migrating || p.epoch != m.seq || p.tries != m.tries {
		return
	}
	p.drained = true
	t := f.pickHost(m.flow)
	if t == nil {
		p.tries++ // invalidate the drain timeout; backoff owns the retry
		f.retryMigrate(m.flow, p)
		return
	}
	p.target = t.Index
	f.sendEstablish(m.flow, p)
}

// onEstablishAck completes (or fails) the establish leg.
func (f *Fleet) onEstablishAck(src int, m netMsg) {
	p := f.placement[m.flow]
	if p == nil || !p.migrating || p.epoch != m.seq || p.tries != m.tries {
		return
	}
	p.tries++ // invalidate the establish timeout
	if !m.ok {
		// The target rejected the spec and holds no copy: re-picking is
		// safe.
		p.target = -1
		f.retryMigrate(m.flow, p)
		return
	}
	p.host = src
	p.target = -1
	p.migrating = false
	p.drained = false
	p.drainSent = false
	if p.rebalance {
		f.Stats.Rebalances++
		return
	}
	f.Stats.Migrations++
	f.recordTTR(p)
}

// recordTTR logs the crash-to-re-steered time of a completed failover
// against the victim's mirrored crash timestamp.
func (f *Fleet) recordTTR(p *placement) {
	if p.rebalance || p.victim < 0 || p.victim >= len(f.hosts) {
		return
	}
	if at := f.hosts[p.victim].crashedAtMirror; at > 0 {
		f.TTR.Record(int64(f.Eng.Now() - at))
	}
}

// retryMigrate backs off exponentially; past RetryLimit the flow stays
// stranded (flagged by the drain-deadline invariant) until a revival
// rescues it.
func (f *Fleet) retryMigrate(id int, p *placement) {
	p.attempts++
	f.Stats.MigrationRetries++
	if p.attempts > f.Cfg.RetryLimit {
		f.Stats.Stranded++
		return
	}
	backoff := f.Cfg.RetryBase << (p.attempts - 1)
	epoch := p.epoch
	f.Eng.After(backoff, func() { f.tryMigrate(id, epoch) })
}

// --- placement ------------------------------------------------------------

// rendezvousWeight is the highest-random-weight score of (flow, host):
// a splitmix64-style finalizer over the pair, so placement is a pure
// deterministic function with minimal movement when the host set changes.
func rendezvousWeight(flow, host uint64) uint64 {
	x := flow*0x9e3779b97f4a7c15 + (host+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pickHost returns the live host with the highest rendezvous weight for
// the flow (ties break to the lower index), or nil when no host is live.
func (f *Fleet) pickHost(flowID int) *Host {
	var best *Host
	var bestW uint64
	for _, h := range f.hosts {
		if !h.live {
			continue
		}
		if w := rendezvousWeight(uint64(flowID), uint64(h.Index)); best == nil || w > bestW {
			best, bestW = h, w
		}
	}
	return best
}

// AddFlowE places a flow on its rendezvous-chosen host and records the
// placement. Setup-time only (engines idle): initial placement installs
// directly, without a fabric round trip. Errors: duplicate flow ID in
// the rack, no live host, or a spec the host rejects.
func (f *Fleet) AddFlowE(spec iosys.FlowSpec) error {
	if _, dup := f.placement[spec.ID]; dup {
		return fmt.Errorf("fleet: adding flow: duplicate flow id %d", spec.ID)
	}
	h := f.pickHost(spec.ID)
	if h == nil {
		return errors.New("fleet: adding flow: no live host")
	}
	if _, err := h.M.AddFlowE(spec); err != nil {
		return fmt.Errorf("fleet: adding flow on host %d: %w", h.Index, err)
	}
	h.local[spec.ID] = true
	if h.down {
		h.M.PauseFlow(spec.ID)
	}
	f.placement[spec.ID] = &placement{spec: spec, host: h.Index, victim: -1, target: -1}
	i, _ := slices.BinarySearch(f.flowIDs, spec.ID)
	f.flowIDs = slices.Insert(f.flowIDs, i, spec.ID)
	return nil
}

// AddFlow is AddFlowE with the setup-time panic convention of
// iosys.Machine.AddFlow.
func (f *Fleet) AddFlow(spec iosys.FlowSpec) {
	if err := f.AddFlowE(spec); err != nil {
		panic(err)
	}
}

// flowsOn appends to ids the sorted IDs of non-migrating flows the
// balancer has placed on host h.
func (f *Fleet) flowsOn(ids []int, h int) []int {
	for _, id := range f.flowIDs {
		if p := f.placement[id]; !p.migrating && p.host == h {
			ids = append(ids, id)
		}
	}
	return ids
}

// HostOf returns the index of the host currently holding flow id, or -1
// when the flow is unknown or mid-migration.
func (f *Fleet) HostOf(id int) int {
	p := f.placement[id]
	if p == nil || p.migrating {
		return -1
	}
	return p.host
}

// Quiesce pauses every settled flow's generator rack-wide, so in-flight
// work and reconciliation can drain before a final audit (the same
// end-of-run discipline as single-machine chaos runs). Call between
// runs only.
func (f *Fleet) Quiesce() {
	for _, id := range f.flowIDs {
		if p := f.placement[id]; !p.migrating {
			f.hosts[p.host].M.PauseFlow(id)
		}
	}
}

// ResetWindow restarts every host's measurement window and the fleet's
// time-to-recover histogram (warm-up exclusion, as on a single machine).
func (f *Fleet) ResetWindow() {
	for _, h := range f.hosts {
		h.M.ResetWindow()
	}
	f.TTR.Reset()
}

// --- FleetView implementation (the invariants auditor's window) ----------

// HostCount returns the rack size.
func (f *Fleet) HostCount() int { return len(f.hosts) }

// HostMachine returns host i's machine.
func (f *Fleet) HostMachine(i int) *iosys.Machine { return f.hosts[i].M }

// Host returns host i (balancer view included).
func (f *Fleet) Host(i int) *Host { return f.hosts[i] }

// HostLive reports the balancer's view of host i.
func (f *Fleet) HostLive(i int) bool { return f.hosts[i].live }

// PlacedFlowIDs returns the sorted flow IDs placed on host i. The slice
// is reused by the next call.
func (f *Fleet) PlacedFlowIDs(i int) []int {
	f.placed = f.flowsOn(f.placed[:0], i)
	return f.placed
}

// OverdueMigrations returns the sorted IDs of flows still unplaced past
// their drain deadline at time now.
func (f *Fleet) OverdueMigrations(now sim.Time) []int {
	var ids []int
	for _, id := range f.flowIDs {
		if p := f.placement[id]; p.migrating && now > p.deadline {
			ids = append(ids, id)
		}
	}
	return ids
}

// ExpectedHostCredits returns the C_total host i's controller was built
// with (0 on creditless datapaths).
func (f *Fleet) ExpectedHostCredits(i int) int { return f.expected[i] }

// FabricBytes returns the switch's byte ledger for the fabric
// conservation invariant: injected == delivered + dropped + queued.
func (f *Fleet) FabricBytes() (injected, delivered, dropped, queued uint64) {
	st := f.SW.Stats()
	return st.InjectedBytes, st.DeliveredBytes, st.DroppedBytes, uint64(f.SW.QueuedBytes())
}

// FabricFrames returns the switch's frame ledger, same identity as
// FabricBytes.
func (f *Fleet) FabricFrames() (injected, delivered, dropped, queued uint64) {
	st := f.SW.Stats()
	return st.InjectedMsgs, st.DeliveredMsgs, st.DroppedMsgs, uint64(f.SW.QueuedMsgs())
}

// Audit bundles the per-host invariant auditors and the fleet-level
// auditor of one rack.
type Audit struct {
	Hosts []*invariants.Auditor
	Fleet *invariants.FleetAuditor
}

// AttachAuditors arms a per-host auditor on every machine (sweeping on
// that host's own shard) plus the fleet-level auditor, which sweeps at
// epoch barriers — the only points where cross-shard state is coherent.
func (f *Fleet) AttachAuditors(period sim.Time) *Audit {
	if period <= 0 {
		period = 100 * sim.Microsecond
	}
	f.audit = invariants.NewFleetAuditor(f, f.Now)
	f.auditPeriod = period
	f.auditNext = f.now + period
	a := &Audit{Fleet: f.audit}
	for _, h := range f.hosts {
		a.Hosts = append(a.Hosts, invariants.Attach(h.M, period))
	}
	return a
}

// Final runs the end-of-run checks on every auditor.
func (a *Audit) Final() {
	for _, h := range a.Hosts {
		h.Final()
	}
	a.Fleet.Final()
}

// Count sums violations across all auditors.
func (a *Audit) Count() uint64 {
	n := a.Fleet.Count()
	for _, h := range a.Hosts {
		n += h.Count()
	}
	return n
}

// Err joins the auditors' verdicts (nil when every invariant held).
func (a *Audit) Err() error {
	errs := []error{a.Fleet.Err()}
	for _, h := range a.Hosts {
		errs = append(errs, h.Err())
	}
	return errors.Join(errs...)
}

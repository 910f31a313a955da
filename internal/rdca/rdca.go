// Package rdca implements the receiver-driven cache-resident datapath
// the RDCA line of work ("From RDMA to RDCA: Toward a Dataplane with
// Guaranteed Cache Residency", see PAPERS.md) proposes as an alternative
// to CEIO's credit-gated DDIO region: instead of policing how fast the
// NIC may write into the LLC, keep the *entire* receive path
// cache-resident by bounding the in-flight window to what the flow's LLC
// partition can hold and recycling every buffer back to the NIC the
// moment its payload is consumed — before the line can age out of the
// DDIO ways (§2.2 of the CEIO paper describes the eviction mechanism
// both designs fight).
//
// Three mechanisms cooperate:
//
//   - A per-partition in-flight window, sized to the partition's Eq. 1
//     budget (partition bytes / I/O buffer size — the same derivation
//     tenant.Registry.Credits feeds CEIO's per-tenant gate) scaled by a
//     residency target. Arrivals beyond the window park in a FIFO and
//     are admitted as deliveries free slots; RDCA has no elastic on-NIC
//     buffer, so a parked backlog beyond the rx ring bound is dropped
//     and the sender's CCA backs off.
//   - An eviction-imminence signal: the window controller polls
//     cache.LLC.ImminentIn for tagged in-flight rx buffers within an
//     LRU-distance threshold of the eviction tail, and shrinks the
//     window *before* residency is lost. Actual evictions of in-flight
//     buffers (surfaced through the machine's eviction sink via
//     Machine.OnIOEvict) trigger a stronger multiplicative shrink.
//   - Aggressive buffer recycling: CPU-involved reads already retire
//     their line at consume; for CPU-bypass flows the delivered line is
//     explicitly demoted (CLDEMOTE-style) at delivery instead of
//     lingering dirty until capacity pressure evicts it.
//
// The receiver-side window check costs a few nanoseconds per packet
// where CEIO's on-NIC credit controller pays ~150ns, so RDCA wins
// latency-bound workloads; without CEIO's elastic slow path it collapses
// under bursty bypass writes. The `rdca` experiment measures both sides.
package rdca

import (
	"fmt"

	"ceio/internal/cache"
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/ring"
	"ceio/internal/sim"
)

// Options configure the RDCA datapath. Zero fields take defaults from
// DefaultOptions (the core.Options idiom), so tests can override one
// knob without restating the rest.
type Options struct {
	// InitialWindow is the per-partition starting window in I/O buffers.
	InitialWindow int
	// MinWindow is the shrink floor: the window never drops below it, so
	// a flow can always keep a few buffers in flight.
	MinWindow int
	// GrowStep is the additive window increase applied when an adjust
	// tick finds the window saturated and no eviction pressure.
	GrowStep int
	// ResidencyTarget scales the window cap: the fraction of the
	// partition's Eq. 1 budget the in-flight set may pin. Below 1.0 the
	// resident rx set leaves LLC headroom for application state.
	ResidencyTarget float64
	// AdjustPeriod is the window controller's tick on the engine clock.
	AdjustPeriod sim.Time
	// ImminenceBufs is the LRU-tail distance, in I/O buffers, within
	// which a tagged in-flight buffer counts as eviction-imminent.
	ImminenceBufs int
	// ControlOverhead is the receiver-side per-packet cost of the window
	// check — a host-driver comparison, not CEIO's on-NIC ARM-core
	// credit controller, hence an order of magnitude cheaper.
	ControlOverhead sim.Time
	// FixedWindow, when positive, pins every partition's window (the
	// rdca experiment's window sweep); the controller still tracks
	// eviction and imminence counters but never resizes.
	FixedWindow int
}

// DefaultOptions returns the receiver-driven defaults.
func DefaultOptions() Options {
	return Options{
		InitialWindow:   64,
		MinWindow:       8,
		GrowStep:        8,
		ResidencyTarget: 0.5,
		AdjustPeriod:    20 * sim.Microsecond,
		ImminenceBufs:   4,
		ControlOverhead: 20 * sim.Nanosecond,
	}
}

// withDefaults fills zero fields from DefaultOptions.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.InitialWindow == 0 {
		o.InitialWindow = d.InitialWindow
	}
	if o.MinWindow == 0 {
		o.MinWindow = d.MinWindow
	}
	if o.GrowStep == 0 {
		o.GrowStep = d.GrowStep
	}
	if o.ResidencyTarget == 0 {
		o.ResidencyTarget = d.ResidencyTarget
	}
	if o.AdjustPeriod == 0 {
		o.AdjustPeriod = d.AdjustPeriod
	}
	if o.ImminenceBufs == 0 {
		o.ImminenceBufs = d.ImminenceBufs
	}
	if o.ControlOverhead == 0 {
		o.ControlOverhead = d.ControlOverhead
	}
	return o
}

// flowState is the per-flow driver state.
type flowState struct {
	rx      *ring.HWRing // CPU-involved receive ring; nil for bypass flows
	pending int          // this flow's packets parked in the partition FIFO
	gone    bool         // torn down; parked packets were drained at removal
}

// job carries one packet's (datapath, flow, packet) context through the
// window check and any wait in the partition FIFO; pool-recycled so the
// admission path schedules with AfterArg instead of allocating a closure
// per packet.
type job struct {
	d *RDCA
	f *iosys.Flow
	p *pkt.Packet
}

// partWindow is one LLC partition's receiver-driven window state. On an
// untenanted machine there is exactly one partition spanning the DDIO
// region; with Config.Tenancy the windows follow the waymask carve, and
// the controller re-reads partition capacities every tick so dynamic
// repartitioning moves the caps with the ways.
type partWindow struct {
	window   int // current admission window (I/O buffers)
	cap      int // Eq. 1 budget x ResidencyTarget
	inFlight int // admitted buffers not yet delivered

	// pend is the FIFO of arrivals awaiting window admission; entries
	// are pooled jobs.
	pend sim.Queue[*job]

	evictedTick uint64 // in-flight evictions since the last adjust tick
}

// RDCA is the receiver-driven cache-resident datapath: an
// iosys.Datapath contender next to the baselines and CEIO.
type RDCA struct {
	m   *iosys.Machine
	opt Options

	wins []partWindow

	// inflight tags the admitted-but-unconsumed rx buffers with their
	// partition: the imminence predicate and the eviction hook consult
	// it so dataplane state lines sharing a partition are never counted.
	inflight map[cache.BufID]int
	pred     func(cache.BufID) bool // persistent ImminentIn predicate

	jobs sim.FreeList[job]

	// Statistics.
	Demoted         uint64 // bypass lines dropped from the LLC at delivery
	EvictedInflight uint64 // in-flight buffers evicted before consumption
	EvictShrinks    uint64 // multiplicative shrinks (eviction observed)
	ImminentShrinks uint64 // gentle shrinks (imminence threshold crossed)
	Grows           uint64 // additive grows (window saturated, no pressure)
	PendDrops       uint64 // bypass arrivals dropped by the parked-backlog bound
}

// New returns an RDCA datapath; zero Options fields take defaults.
func New(opts Options) *RDCA {
	return &RDCA{opt: opts.withDefaults()}
}

// Name implements iosys.Datapath.
func (d *RDCA) Name() string { return "RDCA" }

// Attach implements iosys.Datapath: size the per-partition windows from
// the live LLC carve (the tenant registry partitioned it before the
// datapath attaches) and arm the window controller on the engine clock.
func (d *RDCA) Attach(m *iosys.Machine) {
	d.m = m
	d.wins = make([]partWindow, m.LLC.Partitions())
	for pi := range d.wins {
		pw := &d.wins[pi]
		pw.cap = d.capBufs(pi)
		pw.window = d.opt.InitialWindow
		if d.opt.FixedWindow > 0 {
			pw.window = d.opt.FixedWindow
		} else if pw.window > pw.cap {
			pw.window = pw.cap
		}
	}
	d.inflight = make(map[cache.BufID]int, 1024)
	d.pred = func(id cache.BufID) bool { _, ok := d.inflight[id]; return ok }
	m.OnIOEvict = d.onIOEvict
	m.Eng.Every(d.opt.AdjustPeriod, d.opt.AdjustPeriod, d.adjust)
}

// capBufs returns partition pi's window cap in I/O buffers: the per-
// partition Eq. 1 budget (the same number tenant.Registry.Credits hands
// CEIO's per-tenant credit gate) scaled by the residency target.
func (d *RDCA) capBufs(pi int) int {
	c := int(float64(d.m.LLC.PartCapacity(pi)) * d.opt.ResidencyTarget / float64(d.m.Cfg.IOBufSize))
	if c < d.opt.MinWindow {
		c = d.opt.MinWindow
	}
	return c
}

// FlowAdded allocates the flow's receive ring (CPU-involved only).
func (d *RDCA) FlowAdded(f *iosys.Flow) {
	st := &flowState{}
	if f.Kind == iosys.CPUInvolved {
		st.rx = ring.NewHWRing(d.m.Cfg.RxRingEntries)
	}
	f.DP = st
}

// FlowRemoved drains the flow's parked arrivals: a torn-down flow (host
// crash mid-window, fleet migration) will never be admitted, so its
// pending packets are dropped — the "drained buffers" of the fault
// model — while already-admitted packets complete normally.
func (d *RDCA) FlowRemoved(f *iosys.Flow) {
	st := f.DP.(*flowState)
	st.gone = true
	if st.pending == 0 {
		return
	}
	drop := func(j *job) bool {
		if j.f != f {
			return false
		}
		st.pending--
		d.m.Drop(j.f, j.p)
		d.jobs.Put(j)
		return true
	}
	for pi := range d.wins {
		d.wins[pi].pend.DeleteFunc(drop)
	}
}

// Ingress posts the packet to the flow's rx ring and runs the window
// check after the (small) receiver-side control overhead.
func (d *RDCA) Ingress(f *iosys.Flow, p *pkt.Packet) {
	st := f.DP.(*flowState)
	if st.rx != nil {
		if st.rx.Free() == 0 {
			d.m.Drop(f, p)
			return
		}
	} else if st.pending >= d.m.Cfg.RxRingEntries {
		// A bypass flow has no host rx ring to bound it; cap its parked
		// backlog at the ring size. RDCA has no elastic buffer, so a
		// burst beyond the window + this bound is dropped and the
		// sender's CCA observes the loss — the collapse mode the rdca
		// experiment's bursty-DFS scenario measures.
		d.PendDrops++
		d.m.Drop(f, p)
		return
	}
	if !d.m.ReserveHostBuf(p) {
		d.m.DropNoHostBuf(f, p)
		return
	}
	if st.rx != nil {
		st.rx.Post(p)
	}
	j := d.jobs.Get()
	*j = job{d: d, f: f, p: p}
	if d.opt.ControlOverhead > 0 {
		d.m.Eng.AfterArg(d.opt.ControlOverhead, decide, j)
	} else {
		decide(j)
	}
}

// decide admits the packet when the partition window has room, else
// parks it in FIFO order.
func decide(arg any) {
	j := arg.(*job)
	d, f := j.d, j.f
	pw := &d.wins[f.Partition()]
	if pw.inFlight < pw.window {
		d.admit(j)
		return
	}
	f.DP.(*flowState).pending++
	pw.pend.Push(j)
}

// admit puts the packet's buffer in flight: tag it, count it against
// the window, and DMA it into the DDIO region.
func (d *RDCA) admit(j *job) {
	pw := &d.wins[j.f.Partition()]
	pw.inFlight++
	d.inflight[j.p.Buf] = j.f.Partition()
	d.m.DMAToHost(j.f, j.p)
	d.jobs.Put(j)
}

// Landed streams a landed CPU-bypass packet onward through the memory
// controller; CPU-involved packets wait in the rx ring for their core's
// poll.
func (d *RDCA) Landed(f *iosys.Flow, p *pkt.Packet) {
	if f.Kind == iosys.CPUBypass {
		d.m.ConsumeBypass(f, p)
	}
}

// Poll hands landed packets from the flow's rx ring to the core.
func (d *RDCA) Poll(f *iosys.Flow, out []*pkt.Packet, max int) []*pkt.Packet {
	return f.DP.(*flowState).rx.PopLanded(out, max)
}

// OnDelivered recycles the buffer the moment its payload is consumed:
// the window slot frees (admitting a parked packet immediately — this
// is what makes the window receiver-driven: deliveries clock
// admissions), and a bypass line still resident in the LLC is demoted
// now instead of lingering dirty until capacity pressure evicts it.
// CPU-involved reads already retired their line at ConsumeIn.
func (d *RDCA) OnDelivered(f *iosys.Flow, p *pkt.Packet) {
	pw := &d.wins[f.Partition()]
	pw.inFlight--
	if _, ok := d.inflight[p.Buf]; ok {
		delete(d.inflight, p.Buf)
		if f.Kind == iosys.CPUBypass && d.m.LLC.Resident(p.Buf) {
			d.m.LLC.Drop(p.Buf)
			d.Demoted++
		}
	}
	d.admitPending(pw)
}

// onIOEvict is the machine's eviction-sink observer: an in-flight rx
// buffer pushed out of the LLC before consumption means the window
// outran residency — the strongest shrink signal the controller has.
func (d *RDCA) onIOEvict(id cache.BufID) {
	part, ok := d.inflight[id]
	if !ok {
		return
	}
	delete(d.inflight, id)
	d.EvictedInflight++
	d.wins[part].evictedTick++
}

// adjust is the window controller tick: refresh the cap from the live
// partition carve, resize on eviction/imminence/saturation, and admit
// parked arrivals into any freed window.
func (d *RDCA) adjust() {
	for pi := range d.wins {
		pw := &d.wins[pi]
		pw.cap = d.capBufs(pi)
		if d.opt.FixedWindow > 0 {
			pw.window = d.opt.FixedWindow
		} else {
			switch {
			case pw.evictedTick > 0:
				// Residency was lost: halve toward the floor.
				pw.window /= 2
				if pw.window < d.opt.MinWindow {
					pw.window = d.opt.MinWindow
				}
				d.EvictShrinks++
			case d.m.LLC.ImminentIn(pi, int64(d.opt.ImminenceBufs*d.m.Cfg.IOBufSize), d.pred) > 0:
				// In-flight buffers near the eviction tail: back off
				// gently before residency is actually lost.
				pw.window -= pw.window / 8
				if pw.window < d.opt.MinWindow {
					pw.window = d.opt.MinWindow
				}
				d.ImminentShrinks++
			case pw.inFlight >= pw.window:
				// Saturated and cache-clean: probe upward.
				pw.window += d.opt.GrowStep
				d.Grows++
			}
			if pw.window > pw.cap {
				pw.window = pw.cap
			}
		}
		pw.evictedTick = 0
		d.admitPending(pw)
	}
}

// admitPending drains the partition FIFO into free window slots.
func (d *RDCA) admitPending(pw *partWindow) {
	for pw.inFlight < pw.window && pw.pend.Len() > 0 {
		j := pw.pend.Pop()
		j.f.DP.(*flowState).pending--
		d.admit(j)
	}
}

// Window returns partition pi's current admission window in buffers.
func (d *RDCA) Window(pi int) int { return d.wins[pi].window }

// WindowCap returns partition pi's window cap in buffers.
func (d *RDCA) WindowCap(pi int) int { return d.wins[pi].cap }

// InFlight returns partition pi's admitted-but-undelivered buffer count.
func (d *RDCA) InFlight(pi int) int { return d.wins[pi].inFlight }

// Pending returns partition pi's parked arrival count.
func (d *RDCA) Pending(pi int) int { return d.wins[pi].pend.Len() }

// InflightTagged returns the number of tagged in-flight rx buffers (the
// imminence predicate's domain); tests audit it against the window sums.
func (d *RDCA) InflightTagged() int { return len(d.inflight) }

// Tagged reports whether id is a tagged in-flight rx buffer — the same
// membership the imminence predicate answers.
func (d *RDCA) Tagged(id cache.BufID) bool {
	_, ok := d.inflight[id]
	return ok
}

// AuditWindows checks the conservation invariants the property tests
// and chaos auditor rely on: per-partition inFlight and pending counts
// are non-negative, tagged buffers never exceed the admitted
// population, and every parked job belongs to a live flow.
func (d *RDCA) AuditWindows() error {
	total := 0
	for pi := range d.wins {
		pw := &d.wins[pi]
		if pw.inFlight < 0 {
			return errNegative("inFlight", pi, pw.inFlight)
		}
		if pw.pend.Len() < 0 {
			return errNegative("pending", pi, pw.pend.Len())
		}
		for _, j := range pw.pend.Items() {
			if j.f.DP.(*flowState).gone {
				return errStalePend(pi, j.f.ID)
			}
		}
		total += pw.inFlight
	}
	if len(d.inflight) > total {
		return fmt.Errorf("rdca: %d tagged in-flight buffers exceed %d admitted", len(d.inflight), total)
	}
	return nil
}

func errNegative(what string, pi, v int) error {
	return fmt.Errorf("rdca: partition %d %s went negative (%d)", pi, what, v)
}

func errStalePend(pi, flowID int) error {
	return fmt.Errorf("rdca: partition %d holds a parked packet of removed flow %d", pi, flowID)
}

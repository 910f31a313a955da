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
//     cache.LLC.ImminentIn for in-flight rx buffers within an
//     LRU-distance threshold of the eviction tail, and shrinks the
//     window *before* residency is lost. Actual evictions of in-flight
//     buffers (surfaced through the machine's eviction sink via
//     Machine.OnIOEvict) trigger a stronger multiplicative shrink.
//   - Aggressive buffer recycling: CPU-involved reads already retire
//     their line at consume; for CPU-bypass flows the delivered line is
//     explicitly demoted (CLDEMOTE-style) at delivery instead of
//     lingering dirty until capacity pressure evicts it.
//
// Neither signal needs a record of which buffers are in flight: every
// packet buffer resident in an RDCA machine's LLC was admitted (only
// admission DMAs) and is undelivered (a CPU-involved read retires its
// line, a bypass line is demoted at delivery, a drop retires it), so
// the in-flight rx set is exactly the resident lines that are not
// dataplane state lines.
//
// The receiver-side window check costs a few nanoseconds per packet
// where CEIO's on-NIC credit controller pays ~150ns, so RDCA wins
// latency-bound workloads; without CEIO's elastic slow path it collapses
// under bursty bypass writes. The `rdca` experiment measures both sides.
package rdca

import (
	"fmt"
	"math"

	"ceio/internal/cache"
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/ring"
	"ceio/internal/sim"
)

// Fixed parameters of the window controller. Like CEIO's Algorithm 1
// parameters (see core.ScanPeriod), they are constants; only the
// residency target and the fixed-window sweep vary.
const (
	// InitialWindow is the per-partition starting window in I/O buffers.
	InitialWindow = 64
	// MinWindow is the shrink floor: the window never drops below it, so
	// a flow can always keep a few buffers in flight.
	MinWindow = 8
	// GrowStep is the additive window increase applied when an adjust
	// tick finds the window saturated and no eviction pressure.
	GrowStep = 8
	// AdjustPeriod is the window controller's tick on the engine clock.
	AdjustPeriod = 20 * sim.Microsecond
	// ImminenceBufs is the LRU-tail distance, in I/O buffers, within
	// which a tagged in-flight buffer counts as eviction-imminent.
	ImminenceBufs = 4
	// ControlOverhead is the receiver-side per-packet cost of the window
	// check — a host-driver comparison, not CEIO's on-NIC ARM-core
	// credit controller, hence an order of magnitude cheaper.
	ControlOverhead = 20 * sim.Nanosecond
)

// Options configure the RDCA datapath. A zero ResidencyTarget takes the
// DefaultOptions value; the window controller's parameters are the
// constants above.
type Options struct {
	// ResidencyTarget scales the window cap: the fraction of the
	// partition's Eq. 1 budget the in-flight set may pin. Below 1.0 the
	// resident rx set leaves LLC headroom for application state.
	ResidencyTarget float64
	// FixedWindow, when positive, pins every partition's window (the
	// rdca experiment's window sweep); the controller still tracks
	// eviction and imminence counters but never resizes.
	FixedWindow int
}

// DefaultOptions returns the receiver-driven defaults.
func DefaultOptions() Options {
	return Options{ResidencyTarget: 0.5}
}

// Validate reports an out-of-range option, naming the field.
func (o Options) Validate() error {
	if o.ResidencyTarget < 0 {
		return fmt.Errorf("rdca: Options.ResidencyTarget must not be negative (got %v)", o.ResidencyTarget)
	}
	if o.FixedWindow < 0 {
		return fmt.Errorf("rdca: Options.FixedWindow must not be negative (got %d)", o.FixedWindow)
	}
	return nil
}

// flowState is the per-flow driver state.
type flowState struct {
	rx      *ring.HWRing // CPU-involved receive ring; nil for bypass flows
	pending int          // this flow's packets parked in the partition FIFO
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

	jobs sim.FreeList[job]

	// Statistics.
	Demoted         uint64 // bypass lines dropped from the LLC at delivery
	EvictedInflight uint64 // in-flight buffers evicted before consumption
	EvictShrinks    uint64 // multiplicative shrinks (eviction observed)
	ImminentShrinks uint64 // gentle shrinks (imminence threshold crossed)
	Grows           uint64 // additive grows (window saturated, no pressure)
	PendDrops       uint64 // bypass arrivals dropped by the parked-backlog bound
}

// New returns an RDCA datapath; a zero ResidencyTarget takes the
// default.
func New(opts Options) *RDCA {
	if opts.ResidencyTarget == 0 {
		opts.ResidencyTarget = DefaultOptions().ResidencyTarget
	}
	return &RDCA{opt: opts}
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
		pw.window = InitialWindow
		if d.opt.FixedWindow > 0 {
			pw.window = d.opt.FixedWindow
		} else if pw.window > pw.cap {
			pw.window = pw.cap
		}
	}
	m.OnIOEvict = d.onIOEvict
	m.Eng.Every(AdjustPeriod, AdjustPeriod, d.adjust)
}

// capBufs returns partition pi's window cap in I/O buffers: the per-
// partition Eq. 1 budget (the same number tenant.Registry.Credits hands
// CEIO's per-tenant credit gate) scaled by the residency target.
func (d *RDCA) capBufs(pi int) int {
	c := int(float64(d.m.LLC.PartCapacity(pi)) * d.opt.ResidencyTarget / float64(d.m.Cfg.IOBufSize))
	if c < MinWindow {
		c = MinWindow
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

// FlowRemoved drains the flow: a torn-down flow (host crash
// mid-window, fleet migration) will never be admitted or polled, so its
// parked arrivals and the landed packets in its rx ring are dropped —
// the "drained buffers" of the fault model — and the landed ones give
// their window slots back. Packets in the window check or in DMA flight
// are dropped when they get there; bypass packets already streaming to
// their consumer complete normally.
func (d *RDCA) FlowRemoved(f *iosys.Flow) {
	st := f.DP.(*flowState)
	pw := &d.wins[f.Partition()]
	if st.pending > 0 {
		pw.pend.DeleteFunc(func(j *job) bool {
			if j.f != f {
				return false
			}
			st.pending--
			d.m.Drop(j.f, j.p)
			d.jobs.Put(j)
			return true
		})
	}
	if st.rx != nil {
		st.rx.Drain(func(p *pkt.Packet) {
			pw.inFlight--
			d.m.Drop(f, p)
		})
		d.admitPending(pw)
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
	d.m.Eng.AfterArg(ControlOverhead, decide, j)
}

// decide admits the packet when the partition window has room, else
// parks it in FIFO order.
func decide(arg any) {
	j := arg.(*job)
	d, f := j.d, j.f
	if f.Removed() {
		// Torn down during the window check.
		d.m.Drop(f, j.p)
		d.jobs.Put(j)
		return
	}
	pw := &d.wins[f.Partition()]
	if pw.inFlight < pw.window {
		d.admit(j)
		return
	}
	f.DP.(*flowState).pending++
	pw.pend.Push(j)
}

// admit puts the packet's buffer in flight: count it against the
// window and DMA it into the DDIO region.
func (d *RDCA) admit(j *job) {
	pw := &d.wins[j.f.Partition()]
	pw.inFlight++
	d.m.DMAToHost(j.f, j.p)
	d.jobs.Put(j)
}

// Landed streams a landed CPU-bypass packet onward through the memory
// controller; CPU-involved packets wait in the rx ring for their core's
// poll. A packet of a removed flow is dropped and frees its window slot.
func (d *RDCA) Landed(f *iosys.Flow, p *pkt.Packet) {
	switch {
	case f.Removed():
		pw := &d.wins[f.Partition()]
		pw.inFlight--
		d.m.Drop(f, p)
		d.admitPending(pw)
	case f.Kind == iosys.CPUBypass:
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
	if f.Kind == iosys.CPUBypass && d.m.LLC.Drop(p.LLC, p.Buf) {
		d.Demoted++
	}
	d.admitPending(pw)
}

// onIOEvict is the machine's eviction-sink observer: an in-flight rx
// buffer pushed out of the LLC before consumption means the window
// outran residency — the strongest shrink signal the controller has.
// Every packet buffer the LLC holds on this machine is in flight.
func (d *RDCA) onIOEvict(_ cache.BufID, part int) {
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
				if pw.window < MinWindow {
					pw.window = MinWindow
				}
				d.EvictShrinks++
			case d.m.LLC.ImminentIn(pi, int64(ImminenceBufs*d.m.Cfg.IOBufSize)) > 0:
				// In-flight buffers near the eviction tail: back off
				// gently before residency is actually lost.
				pw.window -= pw.window / 8
				if pw.window < MinWindow {
					pw.window = MinWindow
				}
				d.ImminentShrinks++
			case pw.inFlight >= pw.window:
				// Saturated and cache-clean: probe upward.
				pw.window += GrowStep
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

// AuditWindows checks the conservation invariants the property tests
// and chaos auditor rely on: per-partition inFlight and pending counts
// are non-negative, the partition's resident packet buffers never
// exceed its admitted population, and every parked job belongs to a
// live flow.
func (d *RDCA) AuditWindows() error {
	for pi := range d.wins {
		pw := &d.wins[pi]
		if pw.inFlight < 0 {
			return errNegative("inFlight", pi, pw.inFlight)
		}
		if pw.pend.Len() < 0 {
			return errNegative("pending", pi, pw.pend.Len())
		}
		for _, j := range pw.pend.Items() {
			if j.f.Removed() {
				return errStalePend(pi, j.f.ID)
			}
		}
		if n := d.m.LLC.ImminentIn(pi, math.MaxInt64); n > pw.inFlight {
			return fmt.Errorf("rdca: partition %d holds %d resident packet buffers, %d admitted", pi, n, pw.inFlight)
		}
	}
	return nil
}

func errNegative(what string, pi, v int) error {
	return fmt.Errorf("rdca: partition %d %s went negative (%d)", pi, what, v)
}

func errStalePend(pi, flowID int) error {
	return fmt.Errorf("rdca: partition %d holds a parked packet of removed flow %d", pi, flowID)
}

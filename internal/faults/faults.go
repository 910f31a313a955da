// Package faults is the deterministic fault-injection substrate for the
// CEIO simulation. The paper proves its control plane (Algorithm 1
// credits, elastic buffers, SW-ring ordering) on a fault-free substrate;
// production NIC-CPU data paths are not fault-free: frames are lost or
// corrupted on the wire, PCIe DMA stalls under credit exhaustion,
// steering-rule updates in the RMT flow engine lag or fail, on-NIC memory
// comes under bursty pressure from co-tenants, and host cores stall.
//
// An Injector is built from a Plan and consulted by the simulation at
// well-defined hook points (iosys.Machine.emit, pcie.Engine.WriteTo/ReadTo,
// core.CEIO's steering/release/read paths, iosys.Core's poll loop). Two
// properties make injected chaos debuggable:
//
//   - Determinism: the Injector draws from its own seeded RNG, separate
//     from the simulation engine's, so an identical Plan (including its
//     Seed) on an identical scenario reproduces the exact same fault
//     sequence and therefore a byte-identical event trace.
//   - Nil safety: every hook method is safe on a nil *Injector and
//     reports "no fault", so the hot paths carry no configuration
//     branches of their own.
//
// Probabilistic faults (wire loss, credit-release loss, steering failure,
// read loss) are per-event Bernoulli trials. Capacity and stall faults
// (DMA stalls, on-NIC memory pressure, CPU stalls) are periodic episodes
// phase-locked to the simulated clock, modelling the bursty, adversarial
// interference IOCA and RDCA observe on multi-tenant hosts.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"ceio/internal/sim"
)

// Verdict is the outcome of the wire-level fault trial for one packet.
type Verdict uint8

// Wire verdicts.
const (
	// VerdictDeliver passes the packet through unharmed.
	VerdictDeliver Verdict = iota
	// VerdictDrop loses the frame on the wire (never reaches the NIC).
	VerdictDrop
	// VerdictCorrupt flips bits in flight; the NIC's FCS check discards
	// the frame, so the effect is a drop accounted separately.
	VerdictCorrupt
)

func (v Verdict) String() string {
	switch v {
	case VerdictDrop:
		return "drop"
	case VerdictCorrupt:
		return "corrupt"
	default:
		return "deliver"
	}
}

// Episode describes a periodic fault window: the fault is active during
// [PhaseNs + k*PeriodNs, PhaseNs + k*PeriodNs + DurationNs) for every
// k >= 0. Episodes are pure functions of the simulated clock, so they
// replay exactly.
type Episode struct {
	PeriodNs   int64 `json:"period_ns,omitempty"`
	DurationNs int64 `json:"duration_ns,omitempty"`
	PhaseNs    int64 `json:"phase_ns,omitempty"`
}

// Enabled reports whether the episode injects anything at all.
func (e Episode) Enabled() bool { return e.PeriodNs > 0 && e.DurationNs > 0 }

// Validate checks the episode geometry.
func (e Episode) Validate(what string) error {
	if e.PeriodNs < 0 || e.DurationNs < 0 || e.PhaseNs < 0 {
		return fmt.Errorf("faults: %s: negative episode field", what)
	}
	if e.Enabled() && e.DurationNs > e.PeriodNs {
		return fmt.Errorf("faults: %s: duration %dns exceeds period %dns", what, e.DurationNs, e.PeriodNs)
	}
	return nil
}

// ActiveAt reports whether the episode is in a fault window at time t.
func (e Episode) ActiveAt(t sim.Time) bool {
	if !e.Enabled() || int64(t) < e.PhaseNs {
		return false
	}
	return (int64(t)-e.PhaseNs)%e.PeriodNs < e.DurationNs
}

// EndAt returns the absolute end of the fault window containing t, or 0
// when t is outside any window.
func (e Episode) EndAt(t sim.Time) sim.Time {
	if !e.ActiveAt(t) {
		return 0
	}
	start := int64(t) - (int64(t)-e.PhaseNs)%e.PeriodNs
	return sim.Time(start + e.DurationNs)
}

// NextStart returns the start of the first fault window at or after t, or
// 0 when the episode never fires. It is the scheduling dual of ActiveAt:
// the fleet balancer walks crash windows with it instead of polling.
func (e Episode) NextStart(t sim.Time) sim.Time {
	if !e.Enabled() {
		return 0
	}
	if int64(t) <= e.PhaseNs {
		return sim.Time(e.PhaseNs)
	}
	rem := (int64(t) - e.PhaseNs) % e.PeriodNs
	if rem < e.DurationNs {
		// t is inside a window; that window's start is the answer.
		return sim.Time(int64(t) - rem)
	}
	return sim.Time(int64(t) - rem + e.PeriodNs)
}

// OneShot builds an episode covering exactly [at, at+duration): a single
// fault window whose period is pushed past any plausible run length, the
// idiom for "kill this host once at t and revive it at t+d".
func OneShot(at, duration sim.Time) Episode {
	return Episode{PhaseNs: int64(at), DurationNs: int64(duration), PeriodNs: 1 << 62}
}

// Plan declares the fault processes for one simulation run. The zero
// value injects nothing. Rates are per-event Bernoulli probabilities in
// [0, 1]; episodes are periodic windows on the simulated clock. Plans are
// JSON-serialisable so a failing chaos run can be replayed from its
// printed plan + seed (`ceio-sim -faults plan.json`).
type Plan struct {
	// Seed drives the injector's private RNG. The same Seed and Plan on
	// the same scenario reproduce the identical fault sequence.
	Seed int64 `json:"seed,omitempty"`

	// WireDropRate loses frames on the wire before the NIC sees them.
	WireDropRate float64 `json:"wire_drop_rate,omitempty"`
	// WireCorruptRate corrupts frames in flight; the NIC's FCS check
	// discards them (a drop, accounted separately).
	WireCorruptRate float64 `json:"wire_corrupt_rate,omitempty"`
	// CreditLossRate loses a host->NIC lazy credit-release message; the
	// controller's InUse count stays inflated until the reconciliation
	// heartbeat recovers the credits.
	CreditLossRate float64 `json:"credit_loss_rate,omitempty"`
	// SteerFailRate fails a steering-rule update in the RMT flow engine;
	// the controller retries with exponential backoff and falls back to
	// the slow path when retries are exhausted.
	SteerFailRate float64 `json:"steer_fail_rate,omitempty"`
	// SteerDelayNs delays every successful steering-rule update, modelling
	// slow firmware table maintenance; stale rules may misroute packets in
	// the meantime.
	SteerDelayNs int64 `json:"steer_delay_ns,omitempty"`
	// ReadLossRate loses a slow-path DMA read in the PCIe fabric; the
	// driver's completion timeout reissues it.
	ReadLossRate float64 `json:"read_loss_rate,omitempty"`

	// DMAStall suspends DMA issue (writes and reads) for the episode
	// window, modelling PCIe credit-exhaustion stalls.
	DMAStall Episode `json:"dma_stall,omitempty"`
	// NICMemPressure reduces usable on-NIC memory during the window by
	// NICMemPressureFraction, modelling co-tenant memory pressure.
	NICMemPressure         Episode `json:"nic_mem_pressure,omitempty"`
	NICMemPressureFraction float64 `json:"nic_mem_pressure_fraction,omitempty"`
	// CPUStall adds CPUStallNs of stall to every poll batch processed
	// during the window (IRQ storms, co-scheduled tenants, SMIs).
	CPUStall   Episode `json:"cpu_stall,omitempty"`
	CPUStallNs int64   `json:"cpu_stall_ns,omitempty"`

	// HostCrash takes the whole host down for the episode window: the
	// machine stops generating and probes go unanswered, so a fleet
	// balancer declares it dead and migrates its flows to survivors; the
	// window's end is the host-recover edge. Single-machine runs ignore
	// it (a crashed host with nobody to fail over to is just the end of
	// the simulation); internal/fleet schedules the crash/recover edges
	// from this episode and notes them via NoteHostCrash/NoteHostRecover.
	HostCrash Episode `json:"host_crash,omitempty"`

	// PortFlap takes ToR switch port PortFlapPort administratively down
	// for the episode window: arrivals to the port are dropped (probes
	// go unanswered, migration handshakes time out and retry) and
	// queued frames wait out the flap. Only racks consult it — the
	// fabric is a rack-level resource — via internal/fleet's barrier
	// loop; single-machine runs ignore it.
	PortFlap     Episode `json:"port_flap,omitempty"`
	PortFlapPort int     `json:"port_flap_port,omitempty"`
	// FabricCut scales every fabric port's line rate by FabricCutFactor
	// during the episode window (0.25 = quarter capacity), modelling an
	// oversubscribed or degraded uplink: serialization stretches, the
	// shared buffer fills, and tail drops follow.
	FabricCut       Episode `json:"fabric_cut,omitempty"`
	FabricCutFactor float64 `json:"fabric_cut_factor,omitempty"`
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.WireDropRate > 0 || p.WireCorruptRate > 0 || p.CreditLossRate > 0 ||
		p.SteerFailRate > 0 || p.SteerDelayNs > 0 || p.ReadLossRate > 0 ||
		p.DMAStall.Enabled() ||
		(p.NICMemPressure.Enabled() && p.NICMemPressureFraction > 0) ||
		(p.CPUStall.Enabled() && p.CPUStallNs > 0) ||
		p.HostCrash.Enabled() ||
		p.PortFlap.Enabled() ||
		(p.FabricCut.Enabled() && p.FabricCutFactor > 0)
}

// Validate reports structurally invalid plans.
func (p Plan) Validate() error {
	rates := []struct {
		v    float64
		what string
	}{
		{p.WireDropRate, "wire_drop_rate"},
		{p.WireCorruptRate, "wire_corrupt_rate"},
		{p.CreditLossRate, "credit_loss_rate"},
		{p.SteerFailRate, "steer_fail_rate"},
		{p.ReadLossRate, "read_loss_rate"},
		{p.NICMemPressureFraction, "nic_mem_pressure_fraction"},
		{p.FabricCutFactor, "fabric_cut_factor"},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: %s = %g outside [0, 1]", r.what, r.v)
		}
	}
	if p.WireDropRate+p.WireCorruptRate > 1 {
		return fmt.Errorf("faults: wire_drop_rate + wire_corrupt_rate = %g exceeds 1",
			p.WireDropRate+p.WireCorruptRate)
	}
	if p.SteerDelayNs < 0 || p.CPUStallNs < 0 {
		return fmt.Errorf("faults: negative duration field")
	}
	if p.PortFlapPort < 0 {
		return fmt.Errorf("faults: port_flap_port must be >= 0, got %d", p.PortFlapPort)
	}
	for _, ep := range []struct {
		e    Episode
		what string
	}{
		{p.DMAStall, "dma_stall"},
		{p.NICMemPressure, "nic_mem_pressure"},
		{p.CPUStall, "cpu_stall"},
		{p.HostCrash, "host_crash"},
		{p.PortFlap, "port_flap"},
		{p.FabricCut, "fabric_cut"},
	} {
		if err := ep.e.Validate(ep.what); err != nil {
			return err
		}
	}
	return nil
}

// String renders the plan as compact JSON (the replay line printed by
// ceio-sim and the chaos suite).
func (p Plan) String() string {
	b, err := json.Marshal(p)
	if err != nil {
		return fmt.Sprintf("faults.Plan{unprintable: %v}", err)
	}
	return string(b)
}

// LoadPlan parses a JSON fault plan and validates it.
func LoadPlan(r io.Reader) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("faults: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Stats counts faults the injector actually fired, per class.
type Stats struct {
	WireDrops    uint64
	WireCorrupts uint64
	CreditLosses uint64
	SteerFails   uint64
	SteerDelays  uint64
	ReadLosses   uint64
	DMAStalls    uint64
	CPUStalls    uint64
	HostCrashes  uint64
	HostRecovers uint64
	PortFlaps    uint64
	FabricCuts   uint64
}

func (s Stats) String() string {
	return fmt.Sprintf("wire-drop=%d wire-corrupt=%d credit-loss=%d steer-fail=%d steer-delay=%d read-loss=%d dma-stall=%d cpu-stall=%d host-crash=%d host-recover=%d port-flap=%d fabric-cut=%d",
		s.WireDrops, s.WireCorrupts, s.CreditLosses, s.SteerFails, s.SteerDelays, s.ReadLosses, s.DMAStalls, s.CPUStalls, s.HostCrashes, s.HostRecovers, s.PortFlaps, s.FabricCuts)
}

// Injector samples the fault processes of one Plan. All hook methods are
// nil-receiver safe and report "no fault" on a nil Injector, so model
// code consults them unconditionally.
type Injector struct {
	plan Plan
	rng  *rand.Rand

	// Stats counts fired faults; read-only for observers.
	Stats Stats
}

// NewInjector validates p and builds an injector over its own
// deterministic RNG (seeded from p.Seed).
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: p, rng: rand.New(rand.NewSource(p.Seed))}, nil
}

// Plan returns the injector's plan (for replay lines).
func (ij *Injector) Plan() Plan {
	if ij == nil {
		return Plan{}
	}
	return ij.plan
}

// Enabled reports whether this injector can fire at all.
func (ij *Injector) Enabled() bool { return ij != nil && ij.plan.Enabled() }

// bernoulli runs one trial at rate p.
func (ij *Injector) bernoulli(p float64) bool {
	return p > 0 && ij.rng.Float64() < p
}

// WireVerdict runs the wire fault trial for one frame.
func (ij *Injector) WireVerdict() Verdict {
	if ij == nil {
		return VerdictDeliver
	}
	if ij.plan.WireDropRate > 0 || ij.plan.WireCorruptRate > 0 {
		r := ij.rng.Float64()
		if r < ij.plan.WireDropRate {
			ij.Stats.WireDrops++
			return VerdictDrop
		}
		if r < ij.plan.WireDropRate+ij.plan.WireCorruptRate {
			ij.Stats.WireCorrupts++
			return VerdictCorrupt
		}
	}
	return VerdictDeliver
}

// LoseCreditRelease runs the trial for one host->NIC credit-release
// message.
func (ij *Injector) LoseCreditRelease() bool {
	if ij == nil || !ij.bernoulli(ij.plan.CreditLossRate) {
		return false
	}
	ij.Stats.CreditLosses++
	return true
}

// LoseRead runs the trial for one slow-path DMA read request.
func (ij *Injector) LoseRead() bool {
	if ij == nil || !ij.bernoulli(ij.plan.ReadLossRate) {
		return false
	}
	ij.Stats.ReadLosses++
	return true
}

// SteerUpdate runs the trial for one steering-rule update: fail=true
// means the flow engine rejected the update (caller retries); otherwise
// delay is how long the firmware takes to apply it (0 = immediate).
func (ij *Injector) SteerUpdate() (delay sim.Time, fail bool) {
	if ij == nil {
		return 0, false
	}
	if ij.bernoulli(ij.plan.SteerFailRate) {
		ij.Stats.SteerFails++
		return 0, true
	}
	if ij.plan.SteerDelayNs > 0 {
		ij.Stats.SteerDelays++
		return sim.Time(ij.plan.SteerDelayNs), false
	}
	return 0, false
}

// DMAStallEnd returns the absolute end of the DMA stall episode covering
// now, or 0 when DMA may issue immediately.
func (ij *Injector) DMAStallEnd(now sim.Time) sim.Time {
	if ij == nil {
		return 0
	}
	end := ij.plan.DMAStall.EndAt(now)
	if end > 0 {
		ij.Stats.DMAStalls++
	}
	return end
}

// NICMemLimit returns the usable on-NIC memory at time now given the
// configured capacity: reduced by NICMemPressureFraction during a
// pressure episode.
func (ij *Injector) NICMemLimit(now sim.Time, capacity int64) int64 {
	if ij == nil || ij.plan.NICMemPressureFraction <= 0 || !ij.plan.NICMemPressure.ActiveAt(now) {
		return capacity
	}
	limit := int64(float64(capacity) * (1 - ij.plan.NICMemPressureFraction))
	if limit < 0 {
		limit = 0
	}
	return limit
}

// CPUStall returns the extra stall added to a poll batch processed at
// time now (0 outside stall episodes).
func (ij *Injector) CPUStall(now sim.Time) sim.Time {
	if ij == nil || ij.plan.CPUStallNs <= 0 || !ij.plan.CPUStall.ActiveAt(now) {
		return 0
	}
	ij.Stats.CPUStalls++
	return sim.Time(ij.plan.CPUStallNs)
}

// HostCrash returns the plan's host-crash episode (zero when the plan
// never crashes the host). The fleet balancer owns the crash/recover
// scheduling; the injector only declares the windows and counts edges.
func (ij *Injector) HostCrash() Episode {
	if ij == nil {
		return Episode{}
	}
	return ij.plan.HostCrash
}

// NoteHostCrash counts one fired host-crash edge.
func (ij *Injector) NoteHostCrash() {
	if ij != nil {
		ij.Stats.HostCrashes++
	}
}

// NoteHostRecover counts one fired host-recover edge.
func (ij *Injector) NoteHostRecover() {
	if ij != nil {
		ij.Stats.HostRecovers++
	}
}

// PortFlap returns the plan's port-flap episode and the flapped port
// (zero Episode when the plan never flaps). The fleet's barrier loop
// owns the down/up edges and notes them via NotePortFlap.
func (ij *Injector) PortFlap() (Episode, int) {
	if ij == nil {
		return Episode{}, 0
	}
	return ij.plan.PortFlap, ij.plan.PortFlapPort
}

// FabricCut returns the plan's capacity-cut episode and factor (zero
// Episode when the plan never cuts capacity).
func (ij *Injector) FabricCut() (Episode, float64) {
	if ij == nil {
		return Episode{}, 0
	}
	return ij.plan.FabricCut, ij.plan.FabricCutFactor
}

// NotePortFlap counts one fired port-down edge.
func (ij *Injector) NotePortFlap() {
	if ij != nil {
		ij.Stats.PortFlaps++
	}
}

// NoteFabricCut counts one fired capacity-cut edge.
func (ij *Injector) NoteFabricCut() {
	if ij != nil {
		ij.Stats.FabricCuts++
	}
}

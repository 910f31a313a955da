// Package invariants is the cross-cutting auditor for the simulated
// datapath: attached to a machine, it asserts conservation properties
// while the simulation runs — credits issued equal credits consumed plus
// reclaimed, elastic-buffer bytes match the on-NIC packet population, the
// host buffer pool leaks nothing, every flow's delivery sequence is
// strictly increasing (SW-ring FIFO order survived the fast/slow path
// alternations), and no CEIO flow that a poll could advance sits on a
// disarmed core. Violations are recorded as structured records instead of
// panics, so a chaos run under heavy fault injection can complete and
// report every invariant the fault handling failed to uphold. A clean
// fault-injected run is the substrate's acceptance test: injected faults
// must surface as degraded throughput, never as broken accounting.
//
// Paper-side counterpart (per the DESIGN.md substitution table): the
// correctness obligations CEIO states but cannot mechanically check on
// hardware — credit conservation in Algorithm 1 (§4.2), the SW ring's
// order-preserving fast/slow merge (§4.1, §5), and zero-copy buffer
// ownership of post_recv (§5). The simulation turns each into a runtime
// assertion.
package invariants

import (
	"fmt"
	"strings"
	"weak"

	"ceio/internal/core"
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/sim"
)

// maxRetained bounds the violation records kept verbatim; later ones are
// still counted. A broken invariant usually fails every subsequent check,
// and retaining thousands of copies of the same drift helps nobody.
const maxRetained = 64

// Violation is one observed invariant breach.
type Violation struct {
	At     sim.Time
	Rule   string // short rule identifier ("credit-ledger", "delivery-order", ...)
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v: [%s] %s", v.At, v.Rule, v.Detail)
}

// Auditor watches one machine. Create with Attach.
type Auditor struct {
	m  *iosys.Machine
	dp *core.CEIO // nil when the datapath is not CEIO

	violations []Violation
	total      uint64

	lastRingViolations uint64
	// lastSeq is the delivery-order expectation of flows still in the
	// machine. A removed flow's expectation moves to retired, keyed by a
	// weak pointer: a batch its core had in flight at teardown may still
	// deliver and is checked against it, yet the audit record does not
	// keep the flow (and its datapath state) alive.
	lastSeq map[*iosys.Flow]uint64
	retired map[weak.Pointer[iosys.Flow]]uint64

	// Checks counts completed periodic sweeps (diagnostics: a zero means
	// the period outlived the simulation and nothing was actually audited).
	Checks uint64
}

// Attach creates an auditor for m and arms its periodic sweep every
// period. It chains onto m.OnDeliver (preserving any existing observer)
// to verify per-flow delivery order on every packet. Attach before
// traffic starts; the first sweep runs one period in.
func Attach(m *iosys.Machine, period sim.Time) *Auditor {
	if period <= 0 {
		period = 100 * sim.Microsecond
	}
	a := &Auditor{
		m:       m,
		lastSeq: make(map[*iosys.Flow]uint64),
		retired: make(map[weak.Pointer[iosys.Flow]]uint64),
	}
	if dp, ok := m.DP.(*core.CEIO); ok {
		a.dp = dp
	}
	prev := m.OnDeliver
	m.OnDeliver = func(f *iosys.Flow, p *pkt.Packet) {
		a.observeDelivery(f, p.Seq)
		if prev != nil {
			prev(f, p)
		}
	}
	m.Eng.Every(period, period, a.sweep)
	return a
}

func (a *Auditor) record(rule, detail string) {
	a.total++
	if len(a.violations) < maxRetained {
		a.violations = append(a.violations, Violation{At: a.m.Eng.Now(), Rule: rule, Detail: detail})
	}
}

// observeDelivery asserts strictly increasing per-flow sequence numbers
// for CPU-involved flows — the ordering the SW ring guarantees. CPU-bypass
// flows are exempt: they have no ordering ring, and their concurrent
// drain reads complete in any order by design. The map key is the flow
// object, not its ID, so a torn-down-and-reused flow ID starts a fresh
// sequence expectation.
func (a *Auditor) observeDelivery(f *iosys.Flow, seq uint64) {
	if f.Kind != iosys.CPUInvolved {
		return
	}
	last, ok := a.lastSeq[f]
	if !ok && len(a.retired) > 0 {
		last, ok = a.retired[weak.Make(f)]
	}
	if ok && seq <= last {
		a.record("delivery-order",
			fmt.Sprintf("flow %d delivered seq %d after %d", f.ID, seq, last))
	}
	a.lastSeq[f] = seq
}

// retire moves the expectations of flows no longer in the machine
// (pointer-compared, so a reused ID is a different flow) to the weakly
// keyed retired set, and forgets retired flows the collector has freed:
// those can never deliver again.
func (a *Auditor) retire() {
	for f, seq := range a.lastSeq {
		if a.m.Flows[f.ID] != f {
			a.retired[weak.Make(f)] = seq
			delete(a.lastSeq, f)
		}
	}
	for w := range a.retired {
		if w.Value() == nil {
			delete(a.retired, w)
		}
	}
}

// sweep runs every periodic check once.
func (a *Auditor) sweep() {
	a.Checks++
	a.retire()
	if a.m.NICMemUsed < 0 || a.m.NICMemUsed > a.m.Cfg.NICMemBytes {
		a.record("nicmem-bounds",
			fmt.Sprintf("NICMemUsed=%d outside [0, %d]", a.m.NICMemUsed, a.m.Cfg.NICMemBytes))
	}
	if a.m.HostPool != nil {
		if err := a.m.HostPool.CheckLeaks(); err != nil {
			a.record("hostbuf-leak", err.Error())
		}
	}
	if a.m.Tenants != nil {
		// Tenancy structure: waymasks disjoint and conserved, floors
		// respected, partition capacities matching masks, occupancies
		// summing to the global LLC occupancy — even mid-repartition.
		if err := a.m.Tenants.Audit(); err != nil {
			a.record("tenant-partition", err.Error())
		}
	}
	if a.dp != nil {
		if err := a.dp.AuditCredits(); err != nil {
			a.record("credit-ledger", err.Error())
		}
		if err := a.dp.AuditElastic(); err != nil {
			a.record("elastic-bytes", err.Error())
		}
		// Idle-poll doorbells: a disarmed core skips its flows' polls,
		// which is sound only while each of them has nothing to do.
		if err := a.dp.AuditDoorbells(); err != nil {
			a.record("doorbell-armed", err.Error())
		}
		// Multi-queue carve: per-core credit shares must sum to Algorithm
		// 1's C_total through every recarve a fault storm triggers, and
		// the per-core member lists must partition the live flows.
		if err := a.dp.AuditCoreShares(); err != nil {
			a.record("core-shares", err.Error())
		}
		if rv := a.dp.RingViolations(); rv != a.lastRingViolations {
			a.record("ring-protocol",
				fmt.Sprintf("%d new SW-ring protocol violations", rv-a.lastRingViolations))
			a.lastRingViolations = rv
		}
	}
}

// Final runs one last sweep plus end-of-run checks that are only valid at
// quiescence, after reconciliation has had a chance to run: the host/NIC
// release gap must be closed (zero leaked credits outstanding). Call it
// after the simulation finishes, before reading Violations.
func (a *Auditor) Final() {
	a.sweep()
	if a.dp != nil {
		if gap := a.dp.ReleaseGap(); gap != 0 {
			a.record("release-gap",
				fmt.Sprintf("%d host-released credits never reached the controller", gap))
		}
	}
}

// Count returns the total violations observed, including ones beyond the
// retention cap.
func (a *Auditor) Count() uint64 { return a.total }

// Violations returns the retained violation records in observation order.
func (a *Auditor) Violations() []Violation {
	return append([]Violation(nil), a.violations...)
}

// Err returns nil when no invariant was breached, otherwise an error
// summarising every retained violation.
func (a *Auditor) Err() error {
	if a.total == 0 {
		return nil
	}
	return violationsErr("invariants", a.total, a.violations)
}

// violationsErr renders a violation summary error (shared by the
// per-machine and fleet auditors).
func violationsErr(what string, total uint64, retained []Violation) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d violation(s)", what, total)
	for _, v := range retained {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	if total > uint64(len(retained)) {
		fmt.Fprintf(&b, "\n  ... and %d more", total-uint64(len(retained)))
	}
	return fmt.Errorf("%s", b.String())
}

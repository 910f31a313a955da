package invariants

// Fleet-level invariants: a rack of CEIO hosts behind the balancer must
// uphold conservation properties no single-machine auditor can see —
// a flow lives on exactly one host, failover migration neither mints nor
// destroys Algorithm 1 credits, and no flow is stranded past its drain
// deadline after a host crash. The auditor observes the fleet through
// the FleetView interface (implemented by internal/fleet.Fleet) so the
// dependency points one way: fleet imports invariants, never the
// reverse.

import (
	"fmt"
	"sort"

	"ceio/internal/core"
	"ceio/internal/iosys"
	"ceio/internal/sim"
)

// FleetView is the read-only surface a fleet exposes for auditing.
// Implementations must return deterministic (sorted) slices, since audit
// records are part of the byte-identical run output. The auditor is done
// with each returned slice before its next call, so an implementation
// may reuse one buffer.
type FleetView interface {
	// HostCount returns the number of hosts in the rack.
	HostCount() int
	// HostMachine returns host i's machine.
	HostMachine(i int) *iosys.Machine
	// HostLive reports the balancer's view of host i (false once declared
	// dead, true again after revival).
	HostLive(i int) bool
	// PlacedFlowIDs returns the sorted flow IDs the balancer has placed
	// on host i (excluding flows mid-migration).
	PlacedFlowIDs(i int) []int
	// OverdueMigrations returns the sorted IDs of flows still awaiting
	// re-placement past their drain deadline at time now.
	OverdueMigrations(now sim.Time) []int
	// ExpectedHostCredits returns the C_total host i's credit controller
	// was built with (0 when host i runs a creditless datapath).
	ExpectedHostCredits(i int) int
	// FabricBytes and FabricFrames return the ToR switch's byte and
	// frame ledgers. Both must satisfy injected == delivered + dropped +
	// queued at every sweep, or the fabric is minting or eating traffic.
	FabricBytes() (injected, delivered, dropped, queued uint64)
	FabricFrames() (injected, delivered, dropped, queued uint64)
}

// FleetAuditor sweeps fleet-level invariants at the sharded fleet's
// epoch barriers (SweepAt), the only points where cross-shard state is
// coherent. Per-host invariants (credit ledger, elastic bytes, ring
// protocol) remain the per-machine Auditor's job; this auditor owns only
// the cross-host rules.
type FleetAuditor struct {
	v   FleetView
	now func() sim.Time

	violations []Violation
	total      uint64

	// owner and ids are SweepAt's scratch, reused across sweeps.
	owner map[int]int
	ids   []int

	// Checks counts completed sweeps (zero means the period outlived the
	// run and nothing was audited).
	Checks uint64
}

// NewFleetAuditor builds an unscheduled fleet auditor; the caller drives
// it with SweepAt (and Final, which stamps violations via now).
func NewFleetAuditor(v FleetView, now func() sim.Time) *FleetAuditor {
	return &FleetAuditor{v: v, now: now, owner: make(map[int]int)}
}

func (a *FleetAuditor) record(now sim.Time, rule, detail string) {
	a.total++
	if len(a.violations) < maxRetained {
		a.violations = append(a.violations, Violation{At: now, Rule: rule, Detail: detail})
	}
}

// SweepAt runs every fleet-level check once, as of time now.
func (a *FleetAuditor) SweepAt(now sim.Time) {
	a.Checks++

	// No flow double-placed: each flow ID exists on at most one host's
	// machine, and the balancer's placement map agrees with machine
	// reality (a placed flow is installed on exactly the host the
	// balancer believes owns it).
	owner := a.owner
	clear(owner)
	for h := 0; h < a.v.HostCount(); h++ {
		m := a.v.HostMachine(h)
		ids := a.ids[:0]
		for id := range m.Flows {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		a.ids = ids
		for _, id := range ids {
			if prev, dup := owner[id]; dup {
				a.record(now, "flow-double-placed",
					fmt.Sprintf("flow %d installed on hosts %d and %d", id, prev, h))
				continue
			}
			owner[id] = h
		}
	}
	for h := 0; h < a.v.HostCount(); h++ {
		for _, id := range a.v.PlacedFlowIDs(h) {
			if got, ok := owner[id]; !ok || got != h {
				where := "no host"
				if ok {
					where = fmt.Sprintf("host %d", got)
				}
				a.record(now, "flow-double-placed",
					fmt.Sprintf("balancer places flow %d on host %d but it is installed on %s", id, h, where))
			}
		}
	}

	// Fleet credit conservation: migration moves flows, never credits.
	// Every CEIO host's controller must still carry exactly the C_total
	// it was built with, and its ledger must balance — through crash,
	// drain, re-steer, and rebalance.
	for h := 0; h < a.v.HostCount(); h++ {
		want := a.v.ExpectedHostCredits(h)
		if want == 0 {
			continue
		}
		dp, ok := a.v.HostMachine(h).DP.(*core.CEIO)
		if !ok {
			continue
		}
		if got := dp.Controller().Total(); got != want {
			a.record(now, "fleet-credit-conservation",
				fmt.Sprintf("host %d controller total %d, want %d", h, got, want))
		}
		if err := dp.AuditCredits(); err != nil {
			a.record(now, "fleet-credit-conservation", fmt.Sprintf("host %d: %v", h, err))
		}
	}

	// No lost flow after the drain deadline: a crashed host's flows must
	// all be re-steered to survivors before their deadline expires.
	for _, id := range a.v.OverdueMigrations(now) {
		a.record(now, "flow-lost-after-drain",
			fmt.Sprintf("flow %d still unplaced past its drain deadline", id))
	}

	// Fabric conservation: the ToR switch neither mints nor eats traffic.
	// Everything injected is delivered, dropped, or still queued — in
	// bytes and in frames.
	if inj, del, drop, q := a.v.FabricBytes(); inj != del+drop+q {
		a.record(now, "fabric-byte-conservation",
			fmt.Sprintf("injected=%d delivered=%d dropped=%d queued=%d", inj, del, drop, q))
	}
	if inj, del, drop, q := a.v.FabricFrames(); inj != del+drop+q {
		a.record(now, "fabric-frame-conservation",
			fmt.Sprintf("injected=%d delivered=%d dropped=%d queued=%d", inj, del, drop, q))
	}
}

// Final runs one last sweep; call after the simulation finishes, before
// reading Violations.
func (a *FleetAuditor) Final() { a.SweepAt(a.now()) }

// Count returns the total violations observed, including ones beyond the
// retention cap.
func (a *FleetAuditor) Count() uint64 { return a.total }

// Violations returns the retained violation records in observation order.
func (a *FleetAuditor) Violations() []Violation {
	return append([]Violation(nil), a.violations...)
}

// Err returns nil when no fleet invariant was breached, otherwise an
// error summarising every retained violation.
func (a *FleetAuditor) Err() error {
	if a.total == 0 {
		return nil
	}
	return violationsErr("fleet invariants", a.total, a.violations)
}

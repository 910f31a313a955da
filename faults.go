package ceio

import (
	"io"

	"ceio/internal/faults"
	"ceio/internal/invariants"
)

// FaultPlan declares a deterministic fault-injection campaign: Bernoulli
// event faults (wire drop/corruption, lost credit releases, rejected or
// delayed steering updates, lost slow-path read completions) plus
// periodic episodes (PCIe DMA stalls, on-NIC memory pressure, per-core
// CPU stalls). A plan plus Config.Seed fully determines a run: replaying
// both reproduces it byte for byte.
type FaultPlan = faults.Plan

// FaultEpisode is a periodic fault window (period, duration, phase).
type FaultEpisode = faults.Episode

// FaultStats counts injected faults by kind.
type FaultStats = faults.Stats

// FaultInjector samples a FaultPlan deterministically; obtain one from
// Simulator.InjectFaults.
type FaultInjector = faults.Injector

// Auditor is the cross-cutting invariants auditor; obtain one from
// Simulator.AttachAuditor.
type Auditor = invariants.Auditor

// Violation is one structured invariant breach recorded by the Auditor.
type Violation = invariants.Violation

// OneShotFault returns an episode with a single window [at, at+duration)
// — the shape fleet kill schedules use for FaultPlan.HostCrash.
func OneShotFault(at, duration Duration) FaultEpisode { return faults.OneShot(at, duration) }

// LoadFaultPlan parses a JSON fault plan (see FaultPlan's field tags).
// Unknown fields are rejected, so a typo cannot silently disable a fault.
func LoadFaultPlan(r io.Reader) (FaultPlan, error) { return faults.LoadPlan(r) }

// InjectFaults arms deterministic fault injection on the simulator from
// plan and returns the injector (for its Stats). The datapath switches to
// degraded-tolerant operation: protocol violations are counted instead of
// panicking, credit reconciliation and read retransmits arm, steering
// updates retry with backoff. Call before traffic starts so the whole run
// is covered. An invalid plan is reported as an error and nothing is
// armed; fault-free runs are byte-identical to builds without this call.
func (s *Simulator) InjectFaults(plan FaultPlan) (*FaultInjector, error) {
	ij, err := faults.NewInjector(plan)
	if err != nil {
		return nil, err
	}
	s.m.SetFaults(ij)
	return ij, nil
}

// AttachAuditor arms the invariants auditor on this simulator, sweeping
// every period (a zero period selects a default). Call before traffic
// starts. Read Auditor.Err after Auditor.Final at the end of the run.
func (s *Simulator) AttachAuditor(period Duration) *Auditor {
	return invariants.Attach(s.m, period)
}

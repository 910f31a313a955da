package ceio

import (
	"ceio/internal/fabric"
	"ceio/internal/fleet"
	"ceio/internal/invariants"
	"ceio/internal/runner"
	"ceio/internal/workload"
)

// Rack-scale façade over internal/fleet: N full simulated hosts behind a
// deterministic L4 balancer with rendezvous-hash flow placement, health
// probes, host-crash failover, and credit-replaying flow migration.

// FleetConfig describes a rack of simulated hosts behind the balancer;
// start from DefaultFleetConfig.
type FleetConfig = fleet.Config

// Fleet is a rack whose hosts each step their own deterministic engine
// shard in lockstep epochs; construct with NewFleet or NewFleetE.
type Fleet = fleet.Fleet

// FleetHost is one rack member (machine plus balancer health view).
type FleetHost = fleet.Host

// FleetStats counts balancer events (probes, deaths, migrations, ...).
type FleetStats = fleet.Stats

// FleetAudit bundles a rack's per-host auditors with the fleet-level
// auditor; obtain one from Fleet.AttachAuditors.
type FleetAudit = fleet.Audit

// FleetAuditor sweeps the cross-host invariants (no flow double-placed,
// fleet credit conservation, no flow lost past its drain deadline).
type FleetAuditor = invariants.FleetAuditor

// DefaultFleetConfig returns a runnable rack of the given size with
// every host running arch over the paper-calibrated machine.
func DefaultFleetConfig(hosts int, arch Architecture) FleetConfig {
	return fleet.DefaultConfig(hosts, workload.Method(arch))
}

// NewFleet builds the rack and starts the balancer's probe ticker.
// Invalid configurations panic; see NewFleetE.
func NewFleet(cfg FleetConfig) *Fleet {
	f, err := NewFleetE(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// NewFleetE is NewFleet with invalid configurations reported as errors.
func NewFleetE(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// FabricConfig describes the rack's top-of-rack switch: per-port line
// rate, shared tail-drop buffer, and port-to-port latency (which is
// also the sharded fleet's lockstep-epoch quantum). Set it on
// FleetConfig.Fabric; start from DefaultFabricConfig.
type FabricConfig = fabric.Config

// FabricSwitch is the ToR switch model itself (Fleet.SW); read its
// Stats for the delivered/dropped/queued ledger.
type FabricSwitch = fleet.Switch

// FabricStats is the switch-wide traffic ledger: injected, delivered,
// and dropped frames and bytes, with tail drops and dark-port drops
// split out.
type FabricStats = fabric.Stats

// DefaultFabricConfig returns the 100 Gbps / 2 MiB-buffer / 1 µs ToR a
// rack of the given size uses by default (one port per host plus the
// balancer's uplink).
func DefaultFabricConfig(hosts int) FabricConfig { return fabric.DefaultConfig(hosts + 1) }

// WorkerPool fans a sharded fleet's per-host engines across OS threads;
// set one on FleetConfig.Pool. A nil pool steps every shard serially on
// the caller — results are byte-identical either way.
type WorkerPool = runner.Pool

// NewWorkerPool starts a pool of the given width (<= 1 returns the
// serial nil pool). Close it when the fleet run is done.
func NewWorkerPool(workers int) *WorkerPool { return runner.NewPool(workers) }

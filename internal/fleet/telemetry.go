package fleet

import "ceio/internal/telemetry"

// registerMetrics publishes the balancer's fleet-level series under
// fleet.* (catalogued in OBSERVABILITY.md). Per-host hardware series
// live in each host machine's own registry; this registry carries only
// what no single host can see — rack liveness, probe outcomes, and the
// failover/migration counters the paper-style time-to-recover numbers
// are rendered from.
func (f *Fleet) registerMetrics() {
	reg := telemetry.NewRegistry()
	reg.Gauge("fleet.hosts.total_count",
		"Hosts in the rack.", func() float64 { return float64(len(f.hosts)) })
	reg.Gauge("fleet.hosts.live_count",
		"Hosts the balancer currently considers live.", func() float64 {
			n := 0
			for _, h := range f.hosts {
				if h.live {
					n++
				}
			}
			return float64(n)
		})
	reg.Gauge("fleet.flows.placed_count",
		"Flows with a settled placement (mid-migration flows excluded).", func() float64 {
			n := 0
			for _, p := range f.placement {
				if !p.migrating {
					n++
				}
			}
			return float64(n)
		})
	reg.Counter("fleet.probes.sent_total",
		"Health probes the balancer sent.", func() uint64 { return f.Stats.ProbesSent })
	reg.Counter("fleet.probes.missed_total",
		"Health probes that went unanswered (host crash window open).", func() uint64 { return f.Stats.ProbesMissed })
	reg.Counter("fleet.failover.crashes_total",
		"Host-crash edges fired by per-host fault plans.", func() uint64 { return f.Stats.Crashes })
	reg.Counter("fleet.failover.recovers_total",
		"Host-recover edges fired at crash window ends.", func() uint64 { return f.Stats.Recovers })
	reg.Counter("fleet.failover.deaths_total",
		"Hosts the balancer declared dead after consecutive missed probes.", func() uint64 { return f.Stats.Deaths })
	reg.Counter("fleet.failover.revivals_total",
		"Declared-dead hosts the balancer revived after answered probes.", func() uint64 { return f.Stats.Revivals })
	reg.Counter("fleet.failover.migrations_total",
		"Victim flows re-steered to a survivor by the failover handshake.", func() uint64 { return f.Stats.Migrations })
	reg.Counter("fleet.failover.migration_retries_total",
		"Migration attempts that backed off and retried.", func() uint64 { return f.Stats.MigrationRetries })
	reg.Counter("fleet.failover.rebalances_total",
		"Flows moved back to their rendezvous home after a revival.", func() uint64 { return f.Stats.Rebalances })
	reg.Counter("fleet.failover.stranded_total",
		"Migration retry budgets exhausted (flow waits for a revival rescue).", func() uint64 { return f.Stats.Stranded })
	reg.Counter("fleet.epochs.barriers_total",
		"Lockstep barriers executed (shards stepped, outboxes sequenced through the switch).",
		func() uint64 { return f.barriers })
	reg.Counter("fleet.epochs.skipped_total",
		"Epoch-grid points the barrier planner jumped over because no frame, fault edge or audit could land there.",
		func() uint64 { return f.skipped })
	reg.Histogram("fleet.failover.time_to_recover_ns",
		"Crash-to-re-steered time per failover-migrated flow.", &f.TTR)
	f.Reg = reg
}

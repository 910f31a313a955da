package ceio

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"ceio/internal/render"
	"ceio/internal/telemetry"
	"ceio/internal/trace"
)

// Telemetry façade: every simulator carries a metrics registry that all
// simulated components register into under the hierarchical names
// catalogued in OBSERVABILITY.md. The registry is the single source of
// truth behind Snapshot, the CLI reports, and the exporters.
type (
	// MetricsRegistry is the simulator's metric registry.
	MetricsRegistry = telemetry.Registry
	// MetricsSampler records registry values into time series on the
	// simulation clock.
	MetricsSampler = telemetry.Sampler
	// MetricLabel is one key=value metric dimension (e.g. tenant="kv").
	MetricLabel = telemetry.Label
)

// Metrics returns the simulator's telemetry registry.
func (s *Simulator) Metrics() *MetricsRegistry { return s.m.Reg }

// StartSampling attaches a time-series sampler snapshotting every
// registered counter and gauge at the given simulated interval. Sampling
// is read-only and clocked on simulated time, so it never perturbs the
// run it observes. Call Stop on the returned sampler to detach.
func (s *Simulator) StartSampling(every Duration) *MetricsSampler {
	return telemetry.NewSampler(s.m.Eng, s.m.Reg, every, nil)
}

// WriteMetrics writes the registry in Prometheus text exposition format
// (the `-metrics-out` file of the CLIs).
func (s *Simulator) WriteMetrics(w io.Writer) error {
	return telemetry.WritePrometheus(w, s.m.Reg)
}

// Tracer records per-packet datapath events (arrival, path verdicts, DMA
// completion, delivery) into a bounded ring for diagnostics.
type Tracer = trace.Tracer

// EnableTracing attaches a tracer retaining up to capacity events and
// returns it.
func (s *Simulator) EnableTracing(capacity int) *Tracer {
	t := trace.New(capacity)
	s.m.Tracer = t
	return t
}

// WriteTimeline writes the attached tracer's per-packet events as
// Chrome trace-event JSON, openable in chrome://tracing or Perfetto.
// EnableTracing must have been called before the run.
func (s *Simulator) WriteTimeline(w io.Writer) error {
	if s.m.Tracer == nil {
		return errors.New("ceio: no tracer attached; call EnableTracing before the run")
	}
	return telemetry.WriteChromeTrace(w, s.m.Tracer.Events())
}

// WriteReport renders the standard human-readable run report: the
// snapshot summary, one aligned line per flow, and the datapath/cache
// counter lines. Everything scalar is read from the telemetry registry,
// so the report, the Prometheus export, and the experiment tables can
// never disagree about a number.
func WriteReport(w io.Writer, s *Simulator) {
	fmt.Fprintln(w, s.Snapshot())
	m := s.m
	ids := make([]int, 0, len(m.Flows))
	for fid := range m.Flows {
		ids = append(ids, fid)
	}
	sort.Ints(ids)
	now := s.Now()
	for _, fid := range ids {
		f := m.Flows[fid]
		fmt.Fprintln(w, render.FlowLine(f.String(), f.Delivered.Mpps(now), f.Delivered.Gbps(now),
			float64(f.Latency.P50())/1e3, float64(f.Latency.P99())/1e3, float64(f.Latency.P999())/1e3,
			f.Drops))
	}
	reg := m.Reg
	if s.CEIO() != nil {
		fmt.Fprintf(w, "  CEIO: fast=%d slow=%d drains=%d marks=%d credits(pool)=%d\n",
			uint64(reg.Value("core.ceio.fast_packets_total")),
			uint64(reg.Value("core.ceio.slow_packets_total")),
			uint64(reg.Value("core.ceio.drains_total")),
			uint64(reg.Value("core.ceio.slow_marks_total")),
			uint64(reg.Value("core.ceio.credits.pool_count")))
	}
	fmt.Fprintf(w, "  LLC: %d hits, %d misses, %d evictions; PCIe->host util %.1f%%\n",
		uint64(reg.Value("cache.llc.hits_total")),
		uint64(reg.Value("cache.llc.misses_total")),
		uint64(reg.Value("cache.llc.evictions_total")),
		reg.Value("pcie.uplink.utilization_ratio")*100)
}

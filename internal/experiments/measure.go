// One measuring path for every experiment table: each experiment
// declares the columns its cells read, as registry series or as one of
// the derivations below, and measure returns those reads for one cell
// replica. runCells fans the replicas out and colStat reduces each read
// across seeds by column index.

package experiments

import (
	"fmt"

	"ceio/internal/fleet"
	"ceio/internal/iosys"
	"ceio/internal/stats"
	"ceio/internal/telemetry"
)

// how reduces one column to a value per replica.
type how uint8

const (
	atEnd how = iota // the series' value at window end
	delta            // a counter's increase over the window
	hmax             // a histogram's exact maximum
	// Histogram quantiles, taken after the seed replicas' histograms
	// merge.
	p50
	p99
	p999
)

var quantile = [...]float64{p50: 0.50, p99: 0.99, p999: 0.999}

// A col is one declared read: a registry series (name and labels)
// reduced by how, or a derivation, by name. show, when set, renders the
// column as a table cell (see cells).
type col struct {
	name   string
	labels []telemetry.Label
	how    how
	show   func(Stat) string
}

// Derivations are the columns no single registry series holds.
// OBSERVABILITY.md's "Experiment columns" subsection names each one.
const (
	worstInvolvedP99 = "worst involved-flow P99"
	rackMissRatio    = "rack LLC miss ratio"
	rackLatency      = "rack delivery latency"
	auditViolations  = "audit violations"
)

var derivations = []string{worstInvolvedP99, rackMissRatio, rackLatency, auditViolations}

// scope is what a cell's columns are read from at window end: a
// registry, and the machine or the rack the derivations walk.
type scope struct {
	reg   *telemetry.Registry
	m     *iosys.Machine
	rack  *fleet.Fleet
	audit *fleet.Audit
}

// derive evaluates a derivation to a scalar or a histogram; ok is false
// when name is not one.
func (s scope) derive(name string) (v float64, h *stats.Histogram, ok bool) {
	switch name {
	case worstInvolvedP99:
		for _, f := range s.m.Flows {
			if f.Kind == iosys.CPUInvolved {
				v = max(v, float64(f.Latency.P99()))
			}
		}
		return v, nil, true
	case rackMissRatio:
		return s.rack.MissRate(), nil, true
	case rackLatency:
		return 0, s.rack.MergedLatency(), true
	case auditViolations:
		return float64(s.audit.Count()), nil, true
	}
	return 0, nil, false
}

// reads is one cell replica's declared reads in column order. A
// quantile column keeps a copy of its histogram in h instead of a value
// in v, so the seed replicas merge before the quantile is taken.
type reads struct {
	cols []col
	v    []float64
	h    []*stats.Histogram
	// timeline is the sampler a tenants cell attached, if any.
	timeline *telemetry.Sampler
}

// read evaluates cols. A column naming a series the registry lacks is a
// bug in its declaration, so it panics rather than read 0.
func (s scope) read(cols []col) reads {
	r := reads{cols: cols, v: make([]float64, len(cols)), h: make([]*stats.Histogram, len(cols))}
	for i, c := range cols {
		v, h, ok := s.derive(c.name)
		if !ok {
			mt, found := s.reg.Lookup(c.name, c.labels...)
			if !found {
				panic(fmt.Sprintf("experiments: column %s%v is not a registered series", c.name, c.labels))
			}
			if h = mt.Hist(); h == nil {
				v = mt.Value()
			}
		}
		switch c.how {
		case atEnd, delta:
			r.v[i] = v
		case hmax:
			r.v[i] = float64(h.Max())
		default:
			r.h[i] = &stats.Histogram{}
			r.h[i].Merge(h)
		}
	}
	return r
}

// measure runs one cell replica: a machine on c.Machine and dp carrying
// flows, then arm (when non-nil), then c's warm-up and measurement
// window. It returns cols as read at window end, less the delta
// columns' values when the window opened.
func measure(c Config, dp iosys.Datapath, flows []iosys.FlowSpec, cols []col, arm func(*iosys.Machine)) reads {
	m := iosys.NewMachine(c.Machine, dp)
	for _, f := range flows {
		m.AddFlow(f)
	}
	if arm != nil {
		arm(m)
	}
	m.Run(m.Eng.Now() + c.Warmup)
	m.ResetWindow()
	return scope{reg: m.Reg, m: m}.window(cols, func() { m.Run(m.Eng.Now() + c.Measure) })
}

// window opens a measurement window on s: it reads cols' delta columns,
// runs the window, and returns cols as read at its end, less the delta
// columns' opening values.
func (s scope) window(cols []col, run func()) reads {
	open := make([]float64, len(cols))
	for i, col := range cols {
		if col.how == delta {
			open[i] = s.read(cols[i : i+1]).v[0]
		}
	}
	run()
	r := s.read(cols)
	for i := range cols {
		r.v[i] -= open[i]
	}
	return r
}

// flowsOf returns n flows built by spec for IDs 1..n.
func flowsOf(n int, spec func(id int) iosys.FlowSpec) []iosys.FlowSpec {
	out := make([]iosys.FlowSpec, n)
	for i := range out {
		out[i] = spec(i + 1)
	}
	return out
}

// colStat reduces column i across a cell's seed replicas: min/mean/max
// of a scalar, or the single quantile of the merged histograms.
func colStat(reps []reads, i int) Stat {
	c := reps[0].cols[i]
	if c.how < p50 {
		return statOf(reps, func(r reads) float64 { return r.v[i] })
	}
	merged := &stats.Histogram{}
	for _, r := range reps {
		merged.Merge(r.h[i])
	}
	v := float64(merged.Percentile(quantile[c.how]))
	return Stat{Min: v, Mean: v, Max: v, N: 1}
}

// cells renders a cell's columns that declare show, in column order.
func cells(reps []reads) []string {
	var out []string
	for i, c := range reps[0].cols {
		if c.show != nil {
			out = append(out, c.show(colStat(reps, i)))
		}
	}
	return out
}

package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"ceio/internal/sim"
	"ceio/internal/stats"
)

// Series is one sampled metric's value sequence, aligned to the
// sampler's tick list from index Start.
type Series struct {
	ID    string // metric identity (name{labels})
	Start int    // index into the sampler's tick list of the first point
	Pts   []float64
}

// Sampler periodically snapshots a registry's scalar metrics (counters
// and gauges; histograms are export-only) into in-memory time series.
// Sampling is driven by the simulation clock via Engine.Every, so a
// sampled run observes identical values at identical simulated instants
// regardless of wall-clock scheduling or worker-pool parallelism — the
// sampler only reads component state and never draws from the engine
// RNG, so attaching it cannot perturb the event stream it observes.
type Sampler struct {
	reg    *Registry
	every  sim.Time
	filter func(*Metric) bool

	ticks  []sim.Time
	series []*Series
	byID   map[string]*Series
	cancel func()
}

// NewSampler attaches a sampler to eng that snapshots reg every
// `every` simulated nanoseconds, starting one interval after the
// current simulated time. filter, when non-nil, restricts which metrics
// are sampled (return true to keep). Call Stop to detach.
func NewSampler(eng *sim.Engine, reg *Registry, every sim.Time, filter func(*Metric) bool) *Sampler {
	if every <= 0 {
		panic("telemetry: sampler interval must be positive")
	}
	s := &Sampler{reg: reg, every: every, filter: filter, byID: make(map[string]*Series)}
	start := eng.Now() + every
	s.cancel = eng.Every(start, every, func() { s.sample(eng.Now()) })
	return s
}

// sample records one tick. Metrics registered after the sampler started
// (rare; registration is normally construction-time) join at the current
// tick and export empty cells for earlier ticks.
func (s *Sampler) sample(t sim.Time) {
	tick := len(s.ticks)
	s.ticks = append(s.ticks, t)
	for _, m := range s.reg.Metrics() {
		if m.Kind == KindHistogram {
			continue
		}
		if s.filter != nil && !s.filter(m) {
			continue
		}
		sr, ok := s.byID[m.ID()]
		if !ok {
			sr = &Series{ID: m.ID(), Start: tick}
			s.byID[m.ID()] = sr
			s.series = append(s.series, sr)
		}
		sr.Pts = append(sr.Pts, m.Value())
	}
}

// Stop cancels the periodic sampling event. The recorded series remain
// readable.
func (s *Sampler) Stop() {
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

// Ticks returns the simulated times at which samples were taken.
func (s *Sampler) Ticks() []sim.Time { return s.ticks }

// Series returns the recorded series sorted by metric identity.
func (s *Sampler) Series() []*Series {
	out := make([]*Series, len(s.series))
	copy(out, s.series)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Points converts one recorded series into stats.Points, for reuse with
// the stats package's series helpers.
func (s *Sampler) Points(id string) []stats.Point {
	sr, ok := s.byID[id]
	if !ok {
		return nil
	}
	pts := make([]stats.Point, len(sr.Pts))
	for i, v := range sr.Pts {
		pts[i] = stats.Point{T: s.ticks[sr.Start+i], V: v}
	}
	return pts
}

// formatSample renders a sampled value with the shortest exact decimal
// representation, so exports are byte-stable across runs and platforms.
func formatSample(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV writes the sampled time series as CSV: a t_ns column followed
// by one column per series in identity order. Cells before a series'
// first sample are empty. Output is deterministic: column order is the
// sorted identity order and floats use the shortest exact encoding.
func (s *Sampler) WriteCSV(w io.Writer) error {
	series := s.Series()
	cw := csv.NewWriter(w)
	row := make([]string, 0, len(series)+1)
	row = append(row, "t_ns")
	for _, sr := range series {
		row = append(row, sr.ID)
	}
	if err := cw.Write(row); err != nil {
		return err
	}
	for i, t := range s.ticks {
		row = append(row[:0], strconv.FormatInt(int64(t), 10))
		for _, sr := range series {
			if i >= sr.Start && i-sr.Start < len(sr.Pts) {
				row = append(row, formatSample(sr.Pts[i-sr.Start]))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSONL writes one JSON object per tick:
//
//	{"t_ns":5000000,"values":{"cache.llc.miss_ratio":0.18,...}}
//
// encoding/json sorts map keys, so lines are deterministic.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	type tickRow struct {
		T      int64              `json:"t_ns"`
		Values map[string]float64 `json:"values"`
	}
	enc := json.NewEncoder(w)
	for i, t := range s.ticks {
		row := tickRow{T: int64(t), Values: make(map[string]float64, len(s.series))}
		for _, sr := range s.series {
			if i >= sr.Start && i-sr.Start < len(sr.Pts) {
				row.Values[sr.ID] = sr.Pts[i-sr.Start]
			}
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"ceio/internal/sim"
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

// Lookup returns the recorded series with identity id, or nil when no
// such metric has been sampled.
func (s *Sampler) Lookup(id string) *Series { return s.byID[id] }

// At returns the series' value at tick i of its sampler's tick list, and
// whether the series has a point there: point j falls on tick Start+j.
func (sr *Series) At(i int) (float64, bool) {
	if k := i - sr.Start; k >= 0 && k < len(sr.Pts) {
		return sr.Pts[k], true
	}
	return 0, false
}

// Grid lays sampled series out as a t_ns × series table: a t_ns column
// followed by one column per series in the given order, one row per tick.
// Cells where a series has no point (before it joined) are empty, and
// values use the shortest exact encoding, so the rows are byte-stable
// across runs and platforms.
func Grid(ticks []sim.Time, series []*Series) (header []string, rows [][]string) {
	header = append(header, "t_ns")
	for _, sr := range series {
		header = append(header, sr.ID)
	}
	for i, t := range ticks {
		row := make([]string, 0, len(series)+1)
		row = append(row, strconv.FormatInt(int64(t), 10))
		for _, sr := range series {
			cell := ""
			if v, ok := sr.At(i); ok {
				cell = strconv.FormatFloat(v, 'g', -1, 64)
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return header, rows
}

// WriteCSV writes the sampled time series as CSV: the Grid of the tick
// list and the series in identity order.
func (s *Sampler) WriteCSV(w io.Writer) error {
	header, rows := Grid(s.ticks, s.Series())
	return csv.NewWriter(w).WriteAll(append([][]string{header}, rows...))
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
			if v, ok := sr.At(i); ok {
				row.Values[sr.ID] = v
			}
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

// Package scenario runs declarative JSON experiment specifications over
// the simulated I/O datapath: which architecture, which flows (with
// per-flow start/stop times for churn), how long to warm up and measure.
// It is the scripting surface behind `ceio-sim -config`, letting users
// describe paper-style scenarios without writing Go.
//
// A specification looks like:
//
//	{
//	  "arch": "CEIO",
//	  "duration_ms": 20,
//	  "warmup_ms": 5,
//	  "flows": [
//	    {"id": 1, "kind": "rpc", "pkt_size": 144},
//	    {"id": 2, "kind": "dfs", "pkt_size": 1024, "chunk_pkts": 1024,
//	     "start_ms": 10}
//	  ]
//	}
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ceio/internal/dataplane"
	"ceio/internal/iosys"
	"ceio/internal/render"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// FlowSpec is the JSON description of one flow.
type FlowSpec struct {
	ID int `json:"id"`
	// Kind is one of "rpc", "rpc-rdma", "dfs", "echo", "vxlan".
	Kind string `json:"kind"`
	// PktSize in bytes (0 = workload default).
	PktSize int `json:"pkt_size,omitempty"`
	// ChunkPkts sets the DFS write-chunk length (dfs only).
	ChunkPkts int `json:"chunk_pkts,omitempty"`
	// RateGbps pins the initial sending rate (0 = fair share).
	RateGbps float64 `json:"rate_gbps,omitempty"`
	// FixedRate disables congestion control (UD-style traffic).
	FixedRate bool `json:"fixed_rate,omitempty"`
	// StartMs and StopMs bound the flow's lifetime in simulated
	// milliseconds (0 start = beginning; 0 stop = whole run).
	StartMs float64 `json:"start_ms,omitempty"`
	StopMs  float64 `json:"stop_ms,omitempty"`
	// Queue pins the flow to an rx queue on a multi-core scenario
	// (requires "cores"): 0 lets the RSS hash place it, 1..cores pins it.
	Queue int `json:"queue,omitempty"`
	// Pipeline names an ordered chain of dataplane modules (see
	// internal/dataplane) replacing the flow's scalar per-packet cost,
	// e.g. ["nat64", "acl-trie", "firewall"]. CPU-involved kinds only.
	Pipeline []string `json:"pipeline,omitempty"`
}

// Spec is a complete scenario.
type Spec struct {
	// Arch is a registered architecture name (workload.ParseMethod),
	// e.g. "Baseline", "CEIO" or "RDCA".
	Arch string `json:"arch"`
	// Seed selects the deterministic RNG stream (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DurationMs is the measured window; WarmupMs precedes it.
	DurationMs float64 `json:"duration_ms"`
	WarmupMs   float64 `json:"warmup_ms,omitempty"`
	// Cores selects the multi-queue CPU model: 0 = one core per
	// CPU-involved flow, N >= 1 = N cores behind an RSS dispatch stage.
	Cores int        `json:"cores,omitempty"`
	Flows []FlowSpec `json:"flows"`
}

// FlowResult reports one flow's measured behaviour.
type FlowResult struct {
	ID        int     `json:"id"`
	Kind      string  `json:"kind"`
	Mpps      float64 `json:"mpps"`
	Gbps      float64 `json:"gbps"`
	P50Us     float64 `json:"p50_us"`
	P99Us     float64 `json:"p99_us"`
	P999Us    float64 `json:"p999_us"`
	Drops     uint64  `json:"drops"`
	Delivered uint64  `json:"delivered"`
}

// Result is the scenario outcome, JSON-serialisable for tooling.
type Result struct {
	Arch         string       `json:"arch"`
	TotalMpps    float64      `json:"total_mpps"`
	TotalGbps    float64      `json:"total_gbps"`
	InvolvedMpps float64      `json:"involved_mpps"`
	BypassGbps   float64      `json:"bypass_gbps"`
	LLCMissRate  float64      `json:"llc_miss_rate"`
	Drops        uint64       `json:"drops"`
	Flows        []FlowResult `json:"flows"`
}

// Load parses a specification from JSON, rejecting unknown fields.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the specification for structural errors.
func (s *Spec) Validate() error {
	if _, err := workload.ParseMethod(s.Arch); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if s.DurationMs <= 0 {
		return fmt.Errorf("scenario: duration_ms must be positive")
	}
	if s.Cores < 0 {
		return fmt.Errorf("scenario: cores must be non-negative, got %d", s.Cores)
	}
	if len(s.Flows) == 0 {
		return fmt.Errorf("scenario: no flows")
	}
	seen := map[int]bool{}
	for _, f := range s.Flows {
		if seen[f.ID] {
			return fmt.Errorf("scenario: duplicate flow id %d", f.ID)
		}
		seen[f.ID] = true
		if _, err := buildSpec(f); err != nil {
			return err
		}
		if f.StopMs != 0 && f.StopMs <= f.StartMs {
			return fmt.Errorf("scenario: flow %d stops before it starts", f.ID)
		}
		if f.Queue < 0 || f.Queue > s.Cores {
			return fmt.Errorf("scenario: flow %d queue %d out of range [0,%d]", f.ID, f.Queue, s.Cores)
		}
	}
	return nil
}

func buildSpec(f FlowSpec) (iosys.FlowSpec, error) {
	var spec iosys.FlowSpec
	switch f.Kind {
	case "rpc":
		spec = workload.ERPCKV(f.ID, f.PktSize, workload.DPDK)
	case "rpc-rdma":
		spec = workload.ERPCKV(f.ID, f.PktSize, workload.RDMA)
	case "dfs":
		spec = workload.LineFS(f.ID, f.PktSize, f.ChunkPkts)
	case "echo":
		spec = workload.Echo(f.ID, f.PktSize)
	case "vxlan":
		spec = workload.VxLAN(f.ID)
	default:
		return spec, fmt.Errorf("scenario: flow %d has unknown kind %q", f.ID, f.Kind)
	}
	if f.RateGbps > 0 {
		spec.InitialRate = f.RateGbps * 1e9 / 8
	}
	spec.FixedRate = f.FixedRate
	spec.Queue = f.Queue
	if len(f.Pipeline) > 0 {
		if spec.Kind != iosys.CPUInvolved {
			return spec, fmt.Errorf("scenario: flow %d kind %q is CPU-bypass and cannot carry a pipeline", f.ID, f.Kind)
		}
		if err := dataplane.ValidateChain(f.Pipeline); err != nil {
			return spec, fmt.Errorf("scenario: flow %d: %w", f.ID, err)
		}
		spec.Pipeline = f.Pipeline
	}
	return spec, nil
}

// Run executes the scenario and returns its result.
func (s *Spec) Run() (*Result, error) { return s.RunInstrumented(nil) }

// RunInstrumented is Run with a hook invoked on the freshly built
// machine before any flow is added, for attaching observers (tracers,
// telemetry samplers) to a declarative run. The hook must only attach
// read-side instrumentation; mutating machine state breaks the scenario
// contract that a spec alone determines the result.
func (s *Spec) RunInstrumented(setup func(*iosys.Machine)) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := iosys.DefaultConfig()
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	cfg.Cores = s.Cores
	m := iosys.NewMachine(cfg, workload.NewDatapath(workload.Method(s.Arch)))
	if setup != nil {
		setup(m)
	}

	ms := func(v float64) sim.Time { return sim.Time(v * float64(sim.Millisecond)) }
	kinds := make(map[int]string, len(s.Flows))
	for _, f := range s.Flows {
		f := f
		kinds[f.ID] = f.Kind
		spec, _ := buildSpec(f)
		add := func() { m.AddFlow(spec) }
		if f.StartMs > 0 {
			m.Eng.At(ms(f.StartMs), add)
		} else {
			add()
		}
		if f.StopMs > 0 {
			m.Eng.At(ms(f.StopMs), func() { m.RemoveFlow(f.ID) })
		}
	}

	m.Run(ms(s.WarmupMs))
	m.ResetWindow()
	m.Run(ms(s.WarmupMs + s.DurationMs))

	now := m.Eng.Now()
	// Aggregates read from the telemetry registry: the same source of
	// truth the exporters and `ceio-sim` snapshots use.
	res := &Result{
		Arch:         s.Arch,
		TotalMpps:    m.Reg.Value("iosys.delivered.rate_mpps"),
		TotalGbps:    m.Reg.Value("iosys.delivered.rate_gbps"),
		InvolvedMpps: m.Reg.Value("iosys.involved.rate_mpps"),
		BypassGbps:   m.Reg.Value("iosys.bypass.rate_gbps"),
		LLCMissRate:  m.Reg.Value("cache.llc.miss_ratio"),
		Drops:        uint64(m.Reg.Value("iosys.drops_total")),
	}
	ids := make([]int, 0, len(m.Flows))
	for id := range m.Flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		f := m.Flows[id]
		res.Flows = append(res.Flows, FlowResult{
			ID:        id,
			Kind:      kinds[id],
			Mpps:      f.Delivered.Mpps(now),
			Gbps:      f.Delivered.Gbps(now),
			P50Us:     float64(f.Latency.P50()) / 1e3,
			P99Us:     float64(f.Latency.P99()) / 1e3,
			P999Us:    float64(f.Latency.P999()) / 1e3,
			Drops:     f.Drops,
			Delivered: f.Delivered.Packets,
		})
	}
	return res, nil
}

// WriteText renders the result for terminals: the aggregate summary
// line followed by one aligned line per flow (shared renderer, so
// `ceio-sim -config` output matches flag-built runs).
func (r *Result) WriteText(w io.Writer) {
	fmt.Fprintln(w, render.SummaryLine(r.Arch, r.TotalMpps, r.TotalGbps, r.InvolvedMpps, r.BypassGbps, r.LLCMissRate, r.Drops))
	for _, fr := range r.Flows {
		label := fmt.Sprintf("flow %-4d %-8s", fr.ID, fr.Kind)
		fmt.Fprintln(w, render.FlowLine(label, fr.Mpps, fr.Gbps, fr.P50Us, fr.P99Us, fr.P999Us, fr.Drops))
	}
}

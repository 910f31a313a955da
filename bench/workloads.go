package main

import (
	"fmt"
	"math/rand"
	"sort"

	"ceio/internal/faults"
	"ceio/internal/fleet"
	"ceio/internal/invariants"
	"ceio/internal/iosys"
	"ceio/internal/sim"
	"ceio/internal/telemetry"
	"ceio/internal/workload"
)

// A scenario is one benchmark workload: it builds and measures its targets
// once per repetition. Every scenario is a batch simulation: flow
// generators fix the load in simulated time, and the benchmark is a
// closed loop in host time that issues the next slice only after the
// previous one returns. Why each workload exists, and which layers it
// loads, is in bench/README.md and BENCHMARK.json.
type scenario struct {
	name   string
	pooled bool // steps host shards on a runner pool of options.width
	run    func(r *rep) error
}

var scenarios = []scenario{
	{"host-mix", false, runHostMix},
	{"host-nf-chain", false, runNFChain},
	{"flow-churn", false, runFlowChurn},
	{"fleet-rack", true, runFleetRack},
}

func workloadNames() []string {
	names := make([]string, len(scenarios))
	for i, w := range scenarios {
		names[i] = w.name
	}
	return names
}

func lookup(name string) (scenario, bool) {
	for _, w := range scenarios {
		if w.name == name {
			return w, true
		}
	}
	return scenario{}, false
}

// window is one target's simulated schedule: admission and warm-up until
// the absolute time warmup, then a timed window of length measure, run in
// slices of length slice.
type window struct {
	warmup, measure, slice sim.Time
	// minMeasure floors the window when a test shortens it, where a
	// shorter one would break the scenario (the fleet's failover timing).
	minMeasure sim.Time
}

// scaled shortens the measured window by factor s, keeping whole slices.
func (w window) scaled(s float64) window {
	m := sim.Time(float64(w.measure) * s)
	m = max(m, w.minMeasure, 2*w.slice)
	w.measure = m / w.slice * w.slice
	return w
}

const (
	// admitSpread bounds the seeded start offsets of admitted flows: a
	// seed moves the flows' relative phases, and so every simulated
	// statistic, without changing the offered load.
	admitSpread = sim.Microsecond
	// auditPeriod is the invariant auditors' sweep period on single hosts.
	auditPeriod = 50 * sim.Microsecond
)

// host-mix: the paper's mixed CPU-involved and CPU-bypass traffic on one
// 4-core host, under every architecture in turn.
var (
	hostMixArchs = []workload.Method{
		workload.MethodBaseline, workload.MethodHostCC, workload.MethodShRing,
		workload.MethodCEIO, workload.MethodRDCA,
	}
	hostMixWindow = window{warmup: 2 * sim.Millisecond, measure: 50 * sim.Millisecond, slice: 250 * sim.Microsecond}
)

func runHostMix(r *rep) error {
	var specs []iosys.FlowSpec
	for id := 1; id <= 8; id++ {
		specs = append(specs, workload.ERPCKV(id, 144, workload.DPDK))
	}
	for id := 9; id <= 10; id++ {
		specs = append(specs, workload.LineFS(id, 1024, 1024))
	}
	for _, arch := range hostMixArchs {
		if err := r.hostRun(arch, 4, specs, hostMixWindow, nil); err != nil {
			return err
		}
	}
	return nil
}

// host-nf-chain: KV flows through a four-module dataplane chain, whose
// state lines contend with DDIO for the LLC.
var (
	nfChain       = []string{"nat64", "acl-trie", "firewall", "upf"}
	nfChainArchs  = []workload.Method{workload.MethodBaseline, workload.MethodCEIO}
	nfChainWindow = window{warmup: 2 * sim.Millisecond, measure: 150 * sim.Millisecond, slice: 250 * sim.Microsecond}
)

func runNFChain(r *rep) error {
	var specs []iosys.FlowSpec
	for id := 1; id <= 8; id++ {
		s := workload.ERPCKV(id, 256, workload.DPDK)
		s.Pipeline = nfChain
		specs = append(specs, s)
	}
	for _, arch := range nfChainArchs {
		if err := r.hostRun(arch, 4, specs, nfChainWindow, nil); err != nil {
			return err
		}
	}
	return nil
}

// flow-churn: Fig. 12's flow-scaling setup, one core per flow as there,
// with connection churn — a large established population of fixed-rate
// echo flows, a small rotating active set, and flows torn down and set up
// every churn period.
const (
	churnFlows  = 2048
	churnActive = 16
	churnSwap   = 32
	churnPeriod = 100 * sim.Microsecond
)

// churnWindow is short because the simulator keeps every torn-down
// flow's SW ring: the live heap grows by about 12 MB per simulated ms of
// churn.
var churnWindow = window{warmup: 2 * sim.Millisecond, measure: 10 * sim.Millisecond, slice: 100 * sim.Microsecond}

func runFlowChurn(r *rep) error {
	specs := make([]iosys.FlowSpec, churnFlows)
	for i := range specs {
		specs[i] = churnSpec(i + 1)
	}
	c := &churner{rng: rand.New(rand.NewSource(r.rng.Int63())), next: churnFlows + 1}
	return r.hostRun(workload.MethodCEIO, 0, specs, churnWindow, c)
}

// churnSpec is one 512 B fixed-rate echo flow (RDMA UD: no congestion
// control), sized so the active set fills the link.
func churnSpec(id int) iosys.FlowSpec {
	s := workload.Echo(id, 512)
	s.InitialRate = iosys.DefaultConfig().LinkBandwidth / churnActive
	s.FixedRate = true
	return s
}

// churner drives flow-churn's control-path load from the benchmark's own
// generator: every churnPeriod it tears down churnSwap random established
// flows, sets up as many new (paused) ones, and re-picks the churnActive
// flows that transmit until the next period.
type churner struct {
	r      *rep
	m      *iosys.Machine
	rng    *rand.Rand
	ids    []int // established flows, in no particular order
	active []int
	next   int // next new flow ID
}

// start arms the churn ticker once every initial flow is established.
func (c *churner) start(r *rep, m *iosys.Machine) {
	c.r, c.m = r, m
	for id := range m.Flows {
		c.ids = append(c.ids, id)
	}
	sort.Ints(c.ids) // map order must not reach the seeded generator
	m.Eng.Every(m.Eng.Now(), churnPeriod, c.tick)
}

func (c *churner) tick() {
	r, m := c.r, c.m
	for k := 0; k < churnSwap; k++ {
		i := c.rng.Intn(len(c.ids))
		id := c.ids[i]
		c.ids[i] = c.ids[len(c.ids)-1]
		c.ids = c.ids[:len(c.ids)-1]
		r.op("remove_flow")
		m.RemoveFlow(id)
		r.tr.end()
	}
	for k := 0; k < churnSwap; k++ {
		spec := churnSpec(c.next)
		c.next++
		r.op("add_flow")
		_, err := m.AddFlowE(spec)
		r.tr.end()
		if err != nil {
			r.fail(err)
			continue
		}
		m.PauseFlow(spec.ID)
		c.ids = append(c.ids, spec.ID)
	}
	for _, id := range c.active {
		r.op("pause_flow")
		m.PauseFlow(id)
		r.tr.end()
	}
	c.active = c.active[:0]
	// A partial Fisher-Yates shuffle picks the active set without
	// allocating a permutation of the whole population.
	for k := 0; k < churnActive && k < len(c.ids); k++ {
		j := k + c.rng.Intn(len(c.ids)-k)
		c.ids[k], c.ids[j] = c.ids[j], c.ids[k]
		r.op("resume_flow")
		m.ResumeFlow(c.ids[k])
		r.tr.end()
		c.active = append(c.active, c.ids[k])
	}
}

// hostRun builds one single-host target under method with the given
// iosys.Config.Cores, admits specs at seeded offsets, and measures it. A
// non-nil churner pauses every admitted flow and then drives the churn
// schedule through warm-up and the window.
func (r *rep) hostRun(method workload.Method, cores int, specs []iosys.FlowSpec, w window, churn *churner) error {
	cfg := iosys.DefaultConfig()
	cfg.Seed = r.seed
	cfg.Cores = cores
	r.tr.begin(string(method))
	defer r.tr.end()
	var (
		m     *iosys.Machine
		audit *invariants.Auditor
	)
	if err := r.phase("construct", func() error {
		var err error
		if m, err = iosys.NewMachineE(cfg, workload.NewDatapath(method)); err != nil {
			return err
		}
		audit = invariants.Attach(m, auditPeriod)
		return nil
	}); err != nil {
		return err
	}
	t := &target{
		name:       string(method),
		ceio:       method == workload.MethodCEIO,
		hosts:      []*iosys.Machine{m},
		regs:       []*telemetry.Registry{m.Reg},
		advance:    func(d sim.Time) { m.Run(m.Eng.Now() + d) },
		now:        m.Eng.Now,
		events:     func() uint64 { return m.Eng.Processed },
		reset:      m.ResetWindow,
		violations: audit.Count,
		final:      func() error { audit.Final(); return audit.Err() },
	}
	if err := r.phase("admit", func() error {
		return r.admit(t, specs, func(s iosys.FlowSpec) error {
			if _, err := m.AddFlowE(s); err != nil {
				return err
			}
			if churn != nil {
				m.PauseFlow(s.ID)
			}
			return nil
		})
	}); err != nil {
		return err
	}
	if churn != nil {
		churn.start(r, m)
	}
	return r.measure(t, w.scaled(r.scale))
}

// fleet-rack: a 32-host CEIO rack with a mid-window host crash, host
// shards stepped in lockstep epochs on a runner pool.
const (
	rackHosts = 32
	// rackFlows per host: two eRPC KV flows and one LineFS bulk flow.
	rackFlows = 3
)

// rackWindow is short so that a run holds several repetitions, to take
// the median of, even while the host runs at half speed.
var rackWindow = window{warmup: 2 * sim.Millisecond, measure: 4 * sim.Millisecond, slice: 50 * sim.Microsecond, minMeasure: 2 * sim.Millisecond}

func runFleetRack(r *rep) error {
	w := rackWindow.scaled(r.scale)
	fc := fleet.DefaultConfig(rackHosts, workload.MethodCEIO)
	fc.Machine.Seed = r.seed
	fc.Machine.Cores = 4
	fc.Pool = r.pool
	probe := max(w.measure/200, 5*sim.Microsecond)
	fc.ProbePeriod = probe
	fc.DrainDeadline = w.measure / 8
	fc.Plans = []faults.Plan{{HostCrash: faults.OneShot(w.warmup+w.measure/4, w.measure/4)}}
	r.tr.begin("rack")
	defer r.tr.end()
	var (
		f     *fleet.Fleet
		audit *fleet.Audit
	)
	if err := r.phase("construct", func() error {
		var err error
		if f, err = fleet.New(fc); err != nil {
			return err
		}
		audit = f.AttachAuditors(probe)
		return nil
	}); err != nil {
		return err
	}
	t := &target{
		name:       "CEIO rack",
		ceio:       true,
		regs:       []*telemetry.Registry{f.Reg},
		advance:    f.RunFor,
		now:        f.Now,
		events:     f.EventsProcessed,
		reset:      f.ResetWindow,
		violations: audit.Count,
		final:      func() error { audit.Final(); return audit.Err() },
		ledger: func() error {
			in, out, drop, queued := f.FabricBytes()
			if in != out+drop+queued {
				return fmt.Errorf("fabric ledger: injected %d != delivered %d + dropped %d + queued %d", in, out, drop, queued)
			}
			return nil
		},
	}
	for i := 0; i < f.HostCount(); i++ {
		t.hosts = append(t.hosts, f.HostMachine(i))
		t.regs = append(t.regs, f.HostMachine(i).Reg)
	}
	var specs []iosys.FlowSpec
	for id := 1; id <= rackHosts*rackFlows; id++ {
		if id%rackFlows == 0 {
			specs = append(specs, workload.LineFS(id, 1024, 1024))
		} else {
			specs = append(specs, workload.ERPCKV(id, 144, workload.DPDK))
		}
	}
	if err := r.phase("admit", func() error { return r.admit(t, specs, f.AddFlowE) }); err != nil {
		return err
	}
	return r.measure(t, w)
}

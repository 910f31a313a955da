package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"ceio/internal/iosys"
	"ceio/internal/runner"
	"ceio/internal/sim"
	"ceio/internal/stats"
	"ceio/internal/telemetry"
)

// options configure one benchmark run.
type options struct {
	seed   int64
	budget time.Duration // host time to spend repeating the workload
	traced bool
	width  int     // runner pool width (fleet-rack's host shards)
	scale  float64 // measured-window factor; tests shorten the window
}

// target is one simulated system a repetition measures — a single machine
// or a rack — reduced to the calls the timed window makes into it.
type target struct {
	name       string
	ceio       bool // the target whose outputs become the model.* metrics
	hosts      []*iosys.Machine
	regs       []*telemetry.Registry // registries the work counts are read from
	advance    func(d sim.Time)
	now        func() sim.Time
	events     func() uint64
	reset      func() // restart the measurement window
	violations func() uint64
	final      func() error // end-of-run auditor verdict
	ledger     func() error // extra per-slice oracle; nil on single hosts
}

// model holds the CEIO target's simulated outputs over the timed window.
type model struct {
	mpps, p50us, p99us, missRatio float64
	samples                       uint64 // delivery latency samples
}

// rep is one repetition: every target of the workload built, admitted,
// warmed up, measured and verified once.
type rep struct {
	seed  int64
	scale float64
	width int // runner pool width; 1 without a pool
	pool  *runner.Pool
	rng   *rand.Rand
	tr    *tracer // nil on untraced repetitions
	ys    *yardstick

	// The host times below are raw; the report scales them by speed.
	yard   []time.Duration          // yardstick unit times, taken between slices
	speed  float64                  // hostSpeed(yard)
	setup  time.Duration            // construct + admit + warm-up, all targets
	phases map[string]time.Duration // per phase, all targets
	slices []time.Duration
	wall   time.Duration // Σ slice time
	span   time.Duration // host time across the windows, between-slice checks included
	cpu    time.Duration // process CPU over the same windows
	repCPU time.Duration // process CPU over the whole repetition

	simTime    sim.Time // simulated time measured, Σ over targets
	events     uint64   // engine events in the windows
	allEvents  uint64   // engine events over the whole repetition
	packets    uint64   // packets delivered in the windows
	allocBytes uint64
	peakHeap   uint64 // largest live heap after a target's window
	gcCycles   uint32
	gcPause    time.Duration
	flowOps    int

	attempted, failed int
	failures          []string
	pendingFail       bool

	counts    map[string]float64 // window work counts by registry family
	warmCount map[string]float64 // the same counters over admission and warm-up
	model     model
	digest    hash.Hash64
	profile   []byte // CPU profile of a traced repetition
}

// execute repeats w until o.budget of host time is spent — at least once,
// and in a traced run at least one untraced and one traced repetition,
// alternating. It returns the collected repetitions.
func execute(w scenario, o options) (*result, error) {
	res := &result{workload: w.name, opts: o}
	if o.traced {
		res.tr = &tracer{t0: time.Now()}
	}
	width := 1
	var pool *runner.Pool
	if w.pooled {
		width = o.width
		pool = runner.NewPool(width)
		defer pool.Close()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	ys := newYardstick()
	need := 1
	if o.traced {
		need = 2
	}
	start := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		var tr *tracer
		if o.traced && i%2 == 1 {
			tr = res.tr
		}
		t0 := time.Now()
		r, err := runRep(w, o, width, pool, tr, ys)
		if err != nil {
			return nil, err
		}
		res.reps = append(res.reps, r)
		// Stop when one more repetition as long as the longest so far would
		// overrun.
		longest = max(longest, time.Since(t0))
		if len(res.reps) >= need && time.Since(start)+longest > o.budget {
			return res, nil
		}
	}
}

// benchProcs is every workload's GOMAXPROCS. A single-engine simulation
// is one goroutine, and on a small shared host a second P only lets the
// collector, or the rack's second shard, meet whatever else the host runs
// on the other CPU. The rack's pool still dispatches its shards to its
// workers, which take turns on the one P.
const benchProcs = 1

// profileHz is the CPU profile's sampling rate on traced repetitions.
const profileHz = 250

// runRep runs one repetition from a collected heap, profiling it when tr
// is set.
func runRep(w scenario, o options, width int, pool *runner.Pool, tr *tracer, ys *yardstick) (*rep, error) {
	r := &rep{
		seed:      o.seed,
		scale:     o.scale,
		width:     width,
		pool:      pool,
		rng:       rand.New(rand.NewSource(o.seed)),
		tr:        tr,
		ys:        ys,
		yard:      make([]time.Duration, 0, 4096), // no growth inside the window
		phases:    map[string]time.Duration{},
		counts:    map[string]float64{},
		warmCount: map[string]float64{},
		digest:    fnv.New64a(),
	}
	runtime.GC()
	var prof bytes.Buffer
	if tr != nil {
		// Setting the rate first raises it above pprof's fixed 100 Hz, so
		// small layers get samples too; the profile records the real
		// period. The runtime warns on stderr that the rate was already set.
		// Rates above the kernel's timer tick lose samples.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	cpu0 := cpuTime()
	r.tr.begin("rep")
	err := w.run(r)
	r.tr.end()
	r.repCPU = cpuTime() - cpu0
	r.speed = hostSpeed(r.yard)
	if tr != nil {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	return r, err
}

// phase times one setup or verify phase of the current target.
func (r *rep) phase(name string, fn func() error) error {
	r.tr.begin(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.end()
	r.phases[name] += d
	if name != "verify" {
		r.setup += d
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// op counts one flow operation the benchmark issues and opens its span on
// traced repetitions; the caller closes it with r.tr.end().
func (r *rep) op(name string) {
	r.flowOps++
	r.tr.begin(name)
}

// fail records a check that failed inside the simulation; the slice
// running at the time counts as failed.
func (r *rep) fail(err error) {
	r.pendingFail = true
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

// admit adds specs in order, flow i at the i-th smallest of the seeded
// start offsets.
func (r *rep) admit(t *target, specs []iosys.FlowSpec, add func(iosys.FlowSpec) error) error {
	offs := make([]sim.Time, len(specs))
	for i := range offs {
		offs[i] = sim.Time(r.rng.Int63n(int64(admitSpread)))
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for i, s := range specs {
		if d := offs[i] - t.now(); d > 0 {
			t.advance(d)
		}
		r.op("add_flow")
		err := add(s)
		r.tr.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// liveHeap collects garbage and returns the bytes of heap objects still
// reachable: the simulation state the target holds.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure warms t up to the window start, then runs the timed window one
// slice at a time. Only the advance call is timed; the oracles run
// between slices, off the clock. After the window it reads the target's
// outputs and live heap, and runs the final audit.
func (r *rep) measure(t *target, w window) error {
	if err := r.phase("warmup", func() error {
		if d := w.warmup - t.now(); d > 0 {
			t.advance(d)
		}
		return nil
	}); err != nil {
		return err
	}
	r.addCounts(r.warmCount, t, nil)
	base := make([]delivered, len(t.hosts))
	for i, m := range t.hosts {
		base[i] = delivered{m.Delivered.Packets, m.Delivered.Bytes}
	}
	t.reset()
	before := r.snapshot(t)
	ev0, viol := t.events(), t.violations()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	r.tr.begin("window")
	r.yard = append(r.yard, r.ys.time())
	cpu0, span0 := cpuTime(), time.Now()
	for n := int(w.measure / w.slice); n > 0; n-- {
		if r.ys.due() {
			r.yard = append(r.yard, r.ys.time())
		}
		r.tr.begin("slice")
		t0 := time.Now()
		t.advance(w.slice)
		d := time.Since(t0)
		r.tr.end()
		r.slices = append(r.slices, d)
		r.wall += d
		r.attempted++
		if err := r.check(t, base, &viol); err != nil {
			r.fail(err)
		}
		if r.pendingFail {
			r.failed++
			r.pendingFail = false
		}
	}
	r.span += time.Since(span0)
	r.cpu += cpuTime() - cpu0
	r.tr.end()
	runtime.ReadMemStats(&ms1)
	r.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles += ms1.NumGC - ms0.NumGC
	r.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	r.simTime += w.measure
	r.events += t.events() - ev0
	r.allEvents += t.events()
	r.addCounts(r.counts, t, before)
	r.record(t, w.measure)
	r.peakHeap = max(r.peakHeap, liveHeap())
	if err := r.phase("verify", t.final); err != nil {
		r.fail(err) // a failed final audit fails the run, not a slice
		r.pendingFail = false
	}
	return nil
}

// delivered is a host's delivery meter before the window reset it.
type delivered struct{ pkts, bytes uint64 }

// check runs the per-slice oracles: no new invariant violation, no host
// delivering faster than its link admits, no DDIO region holding more
// than its capacity, and the target's own ledger.
func (r *rep) check(t *target, base []delivered, viol *uint64) error {
	if v := t.violations(); v != *viol {
		err := fmt.Errorf("%s: %d new invariant violation(s) at %v", t.name, v-*viol, t.now())
		*viol = v
		return err
	}
	for i, m := range t.hosts {
		pkts := base[i].pkts + m.Delivered.Packets
		wire := float64(base[i].bytes+m.Delivered.Bytes) + float64(pkts)*float64(m.Cfg.EthOverhead)
		if limit := m.Cfg.LinkBandwidth * m.Eng.Now().Seconds(); wire > limit {
			return fmt.Errorf("%s host %d: delivered %.0f wire bytes by %v, link admits %.0f", t.name, i, wire, m.Eng.Now(), limit)
		}
		if occ, c := m.LLC.Occupancy(), m.LLC.Capacity(); occ > c {
			return fmt.Errorf("%s host %d: LLC occupancy %d exceeds capacity %d", t.name, i, occ, c)
		}
	}
	if t.ledger != nil {
		return t.ledger()
	}
	return nil
}

// workCounters are the registry families whose deltas over the window
// become the per-layer work counts, summed over label sets and hosts.
var workCounters = map[string]bool{
	"cache.llc.insertions_total": true, "cache.llc.hits_total": true,
	"cache.llc.misses_total": true, "cache.llc.evictions_total": true,
	"pcie.dma.writes_total": true, "pcie.dma.reads_total": true, "pcie.dma.credit_stalls_total": true,
	"dataplane.module.state.hits_total": true, "dataplane.module.state.misses_total": true,
	"iosys.core.polls_total": true, "iosys.core.empty_polls_total": true,
	"core.ceio.fast_packets_total": true, "core.ceio.slow_packets_total": true, "core.ceio.credits.moved_total": true,
	"fleet.probes.sent_total": true, "fleet.failover.migrations_total": true,
	"fabric.msgs.injected_total": true, "fabric.msgs.dropped_total": true,
}

// snapshot sums every work counter over t's registries.
func (r *rep) snapshot(t *target) map[string]float64 {
	out := make(map[string]float64, len(workCounters))
	for _, reg := range t.regs {
		for _, m := range reg.Metrics() {
			if workCounters[m.Name] {
				out[m.Name] += m.Value()
			}
		}
	}
	return out
}

// addCounts adds t's work counts since before (nil: since construction)
// into into.
func (r *rep) addCounts(into map[string]float64, t *target, before map[string]float64) {
	for n, v := range r.snapshot(t) {
		into[n] += v - before[n]
	}
}

// record folds t's window outputs into the repetition's digest and, for
// the CEIO target, into the model.* outputs.
func (r *rep) record(t *target, window sim.Time) {
	fmt.Fprintf(r.digest, "%s|", t.name)
	lat := &stats.Histogram{}
	var pkts, hits, misses uint64
	for _, m := range t.hosts {
		pkts += m.Delivered.Packets
		hits += m.LLC.Hits
		misses += m.LLC.Misses
		lat.Merge(&m.Latency)
		fmt.Fprintf(r.digest, "%d,%d,%d,%d,%d,%d,", m.Delivered.Packets, m.Delivered.Bytes,
			m.LLC.Hits, m.LLC.Misses, m.LLC.Evictions, m.TotalDrops)
		histDigest(r.digest, &m.Latency)
	}
	r.packets += pkts
	if !t.ceio {
		return
	}
	r.model = model{
		mpps:    float64(pkts) / window.Seconds() / 1e6,
		p50us:   float64(lat.P50()) / 1e3,
		p99us:   float64(lat.P99()) / 1e3,
		samples: lat.Count(),
	}
	if hits+misses > 0 {
		r.model.missRatio = float64(misses) / float64(hits+misses)
	}
}

// histDigest writes a latency histogram's fingerprint: count, exact sum,
// extrema, and its value at every percentile.
func histDigest(w hash.Hash64, h *stats.Histogram) {
	fmt.Fprintf(w, "%d,%x,%d,%d", h.Count(), math.Float64bits(h.Mean()), h.Min(), h.Max())
	for q := 1; q < 100; q++ {
		fmt.Fprintf(w, ",%d", h.Percentile(float64(q)/100))
	}
	fmt.Fprintf(w, ",%d;", h.P999())
}

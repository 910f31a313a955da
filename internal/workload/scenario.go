package workload

import (
	"slices"

	"ceio/internal/iosys"
	"ceio/internal/sim"
	"ceio/internal/stats"
	"ceio/internal/telemetry"
)

// ScenarioConfig parameterises the dynamic scenarios of §2.3/§6.2. The
// paper swaps flows every 10 seconds on the testbed; epochs here are
// scaled down (simulated time) while preserving the ordering of control
// timescales: epoch >> CCA RTT >> per-packet time.
type ScenarioConfig struct {
	Epoch  sim.Time // epoch length (default 20ms)
	Epochs int      // number of epochs (default 4)
	Warmup sim.Time // excluded from measurement at the start of each run
	Sample sim.Time // sampler interval (default 500µs)
}

// DefaultScenarioConfig returns the scaled dynamic-scenario parameters.
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{
		Epoch:  20 * sim.Millisecond,
		Epochs: 4,
		Warmup: 5 * sim.Millisecond,
		Sample: 500 * sim.Microsecond,
	}
}

// DynamicSeries holds the per-interval time series the paper's
// dynamic-scenario figures plot: CPU-involved throughput (Mpps),
// aggregate goodput (Gbps), and the LLC miss rate over each interval.
// Point k of each rate column belongs to the interval ending at Ticks[k].
type DynamicSeries struct {
	Ticks        []sim.Time
	InvolvedMpps []float64
	TotalGbps    []float64
	MissRate     []float64
}

// DynamicResult aggregates a dynamic-scenario run.
type DynamicResult struct {
	Method       Method
	InvolvedMpps float64       // mean CPU-involved throughput post-warmup
	WorstMpps    float64       // worst sampled interval post-warmup
	MissRate     float64       // mean LLC miss rate post-warmup
	Series       DynamicSeries // sampled every ScenarioConfig.Sample
	Timeline     DynamicSeries // sampled every timeline interval, when positive
}

// rateCounters are the registry counters DynamicSeries derives from, in
// the order rateSampler.series reads them.
var rateCounters = [...]string{
	"iosys.involved.packets_total",
	"iosys.delivered.bytes_total",
	"cache.llc.hits_total",
	"cache.llc.misses_total",
}

// rateSampler is a telemetry sampler over rateCounters plus the counter
// values and time at attach, the baseline of the first interval.
type rateSampler struct {
	*telemetry.Sampler
	t0   sim.Time
	base [len(rateCounters)]float64
}

// sampleRates attaches a rate sampler to m that snapshots rateCounters
// every interval of simulated time.
func sampleRates(m *iosys.Machine, every sim.Time) *rateSampler {
	r := &rateSampler{t0: m.Eng.Now()}
	keep := make(map[string]bool, len(rateCounters))
	for i, name := range rateCounters {
		r.base[i] = m.Reg.Value(name)
		keep[name] = true
	}
	r.Sampler = telemetry.NewSampler(m.Eng, m.Reg, every,
		func(mt *telemetry.Metric) bool { return keep[mt.Name] })
	return r
}

// series differences consecutive snapshots into per-interval rates. An
// interval over which any counter went backwards (a ResetWindow between
// ticks) yields no point; the next interval is measured from its end.
func (r *rateSampler) series() DynamicSeries {
	var cols [len(rateCounters)]*telemetry.Series
	for i, name := range rateCounters {
		cols[i] = r.Lookup(name)
	}
	var out DynamicSeries
	lastT, last := r.t0, r.base
	for k, t := range r.Ticks() {
		var cur [len(rateCounters)]float64
		backwards := false
		for i := range cur {
			cur[i], _ = cols[i].At(k)
			backwards = backwards || cur[i] < last[i]
		}
		if !backwards {
			dt := (t - lastT).Seconds()
			pkts, bytes := cur[0]-last[0], cur[1]-last[1]
			hits, misses := uint64(cur[2]-last[2]), uint64(cur[3]-last[3])
			out.Ticks = append(out.Ticks, t)
			out.InvolvedMpps = append(out.InvolvedMpps, pkts/dt/1e6)
			out.TotalGbps = append(out.TotalGbps, bytes*8/dt/1e9)
			out.MissRate = append(out.MissRate, stats.Ratio(misses, hits+misses))
		}
		lastT, last = t, cur
	}
	return out
}

// RunDynamicDistribution reproduces the dynamic flow distribution
// scenario (Fig. 4a / Fig. 10a): eRPC starts with eight CPU-involved
// flows; at each epoch boundary, two of them are replaced with
// CPU-bypass LineFS flows. A positive timeline attaches a second,
// read-only sampler at that interval whose series land in
// DynamicResult.Timeline.
func RunDynamicDistribution(method Method, cfg iosys.Config, sc ScenarioConfig, timeline sim.Time) DynamicResult {
	m := iosys.NewMachine(cfg, NewDatapath(method))
	for i := 1; i <= 8; i++ {
		m.AddFlow(ERPCKV(i, 144, DPDK))
	}
	series, tl := attachSamplers(m, sc, timeline)

	nextID := 100
	swapped := 0
	for e := 1; e < sc.Epochs; e++ {
		e := e
		m.Eng.At(sim.Time(e)*sc.Epoch, func() {
			// Replace two CPU-involved flows with CPU-bypass flows.
			for k := 0; k < 2 && swapped < 8; k++ {
				m.RemoveFlow(1 + swapped)
				m.AddFlow(LineFS(nextID, 1024, 1024))
				nextID++
				swapped++
			}
		})
	}
	m.Run(sc.Warmup)
	m.ResetWindow()
	m.Run(sim.Time(sc.Epochs) * sc.Epoch)
	return summarize(method, series, tl, sc)
}

// RunNetworkBurst reproduces the network burst scenario (Fig. 4b /
// Fig. 10b): eight steady CPU-involved flows, plus two burst
// CPU-involved flows (on two extra cores) that arrive at each epoch
// boundary and depart halfway through the epoch. timeline is as for
// RunDynamicDistribution.
func RunNetworkBurst(method Method, cfg iosys.Config, sc ScenarioConfig, timeline sim.Time) DynamicResult {
	m := iosys.NewMachine(cfg, NewDatapath(method))
	for i := 1; i <= 8; i++ {
		m.AddFlow(ERPCKV(i, 144, DPDK))
	}
	series, tl := attachSamplers(m, sc, timeline)

	nextID := 200
	for e := 1; e < sc.Epochs; e++ {
		e := e
		m.Eng.At(sim.Time(e)*sc.Epoch, func() {
			a, b := nextID, nextID+1
			nextID += 2
			m.AddFlow(ERPCKV(a, 144, DPDK))
			m.AddFlow(ERPCKV(b, 144, DPDK))
			m.Eng.After(sc.Epoch/2, func() {
				m.RemoveFlow(a)
				m.RemoveFlow(b)
			})
		})
	}
	m.Run(sc.Warmup)
	m.ResetWindow()
	m.Run(sim.Time(sc.Epochs) * sc.Epoch)
	return summarize(method, series, tl, sc)
}

// attachSamplers starts the scenario's rate sampler and, when timeline
// is positive, a second read-only one at that interval (else nil).
func attachSamplers(m *iosys.Machine, sc ScenarioConfig, timeline sim.Time) (series, tl *rateSampler) {
	series = sampleRates(m, sc.Sample)
	if timeline > 0 {
		tl = sampleRates(m, timeline)
	}
	return series, tl
}

func summarize(method Method, series, tl *rateSampler, sc ScenarioConfig) DynamicResult {
	series.Stop()
	res := DynamicResult{Method: method, Series: series.series()}
	if tl != nil {
		tl.Stop()
		res.Timeline = tl.series()
	}
	// Post-warmup intervals: from the first tick at or after the warmup.
	from, _ := slices.BinarySearch(res.Series.Ticks, sc.Warmup)
	if post := res.Series.InvolvedMpps[from:]; len(post) > 0 {
		res.InvolvedMpps = mean(post)
		res.WorstMpps = slices.Min(post)
		res.MissRate = mean(res.Series.MissRate[from:])
	}
	return res
}

// mean sums xs in order and divides by its length.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ExpectedMpps computes the paper's "expected performance" reference
// line: the number of CPU-involved flows times the single-core
// throughput of a flow with sufficient LLC (measured with a
// one-flow CEIO run, which is miss-free by construction).
func ExpectedMpps(cfg iosys.Config, involvedFlows int) float64 {
	m := iosys.NewMachine(cfg, NewDatapath(MethodCEIO))
	m.AddFlow(ERPCKV(1, 144, DPDK))
	m.Run(5 * sim.Millisecond)
	m.ResetWindow()
	m.Run(15 * sim.Millisecond)
	return m.InvolvedMeter.Mpps(m.Eng.Now()) * float64(involvedFlows)
}

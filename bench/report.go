package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// result is one benchmark run: its repetitions and, for a traced run, the
// tracer and the per-layer profile totals.
type result struct {
	workload string
	opts     options
	reps     []*rep
	tr       *tracer
	layerNs  map[string]float64 // flat profile ns per layer, traced reps merged
}

// metric is one reported number. json marks the metrics BENCHMARK.json
// names, which go into the final JSON line; the rest are printed only.
type metric struct {
	name  string
	unit  string
	value float64
	json  bool
}

func (res *result) untraced() []*rep { return res.filter(false) }
func (res *result) traced() []*rep   { return res.filter(true) }

func (res *result) filter(traced bool) []*rep {
	var out []*rep
	for _, r := range res.reps {
		if (r.profile != nil) == traced {
			out = append(out, r)
		}
	}
	return out
}

// median returns the median of f over reps.
func median(reps []*rep, f func(*rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation (v is
// sorted in place); 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[lo]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scaled converts a host time d of r to seconds at the nominal host
// speed (see yardstick.go).
func (r *rep) scaled(d time.Duration) float64 { return d.Seconds() * r.speed }

// sliceMs returns every timed slice of reps in milliseconds, scaled.
func sliceMs(reps []*rep) []float64 {
	var v []float64
	for _, r := range reps {
		for _, d := range r.slices {
			v = append(v, r.scaled(d)*1e3)
		}
	}
	return v
}

// endToEnd returns the end-to-end metrics, medians over the untraced
// repetitions. Host timings are host time scaled to the nominal host
// speed; model.* values are simulated.
func (res *result) endToEnd() []metric {
	reps := res.untraced()
	first := reps[0]
	slices := sliceMs(reps)
	return []metric{
		{"setup_s", "s", median(reps, func(r *rep) float64 { return r.scaled(r.setup) }), true},
		{"wall_s", "s", median(reps, func(r *rep) float64 { return r.scaled(r.wall) }), true},
		{"mevents_per_s", "Mevents/s", median(reps, func(r *rep) float64 { return float64(r.events) / r.scaled(r.wall) / 1e6 }), true},
		{"host_ns_per_pkt", "ns", median(reps, func(r *rep) float64 { return ratio(r.scaled(r.wall)*1e9, float64(r.packets)) }), true},
		{"slice_ms_p50", "ms", quantile(slices, 0.50), true},
		{"slice_ms_p95", "ms", quantile(slices, 0.95), true},
		{"raw_wall_s", "s", median(reps, func(r *rep) float64 { return r.wall.Seconds() }), false},
		{"host_speed", "ratio", median(reps, func(r *rep) float64 { return r.speed }), false},
		{"peak_heap_mb", "MB", median(reps, func(r *rep) float64 { return float64(r.peakHeap) / 1e6 }), true},
		{"alloc_mb_per_sim_ms", "MB/ms", median(reps, func(r *rep) float64 {
			return float64(r.allocBytes) / 1e6 / (float64(r.simTime) / 1e6)
		}), true},
		{"fail_ratio", "ratio", ratio(float64(res.failed()), float64(res.attempted())), false},
		{"model.mpps", "Mpps", first.model.mpps, true},
		{"model.p50_us", "us", first.model.p50us, false},
		{"model.p99_us", "us", first.model.p99us, false},
		{"model.llc_miss_ratio", "ratio", first.model.missRatio, false},
	}
}

// perLayer returns the per-layer metrics of a traced run: work counts from
// the registries (identical in every repetition of a seed), host-side
// runtime and pool figures from the untraced repetitions, and time splits
// from the traced ones.
func (res *result) perLayer() []metric {
	first, plain, traced := res.reps[0], res.untraced(), res.traced()
	c := first.counts
	all := func(name string) float64 { return c[name] + first.warmCount[name] }
	touches := c["dataplane.module.state.hits_total"] + c["dataplane.module.state.misses_total"]
	cacheAccesses := all("cache.llc.insertions_total") + all("cache.llc.hits_total") + all("cache.llc.misses_total") +
		all("dataplane.module.state.hits_total") + all("dataplane.module.state.misses_total")
	allEvents := float64(first.allEvents)
	ms := []metric{
		{"sim.events", "count", float64(first.events), true},
		{"sim.events_per_pkt", "events/pkt", ratio(float64(first.events), float64(first.packets)), true},
		{"cache.llc_insertions", "count", c["cache.llc.insertions_total"], true},
		{"cache.llc_misses", "count", c["cache.llc.misses_total"], true},
		{"cache.llc_evictions", "count", c["cache.llc.evictions_total"], true},
		{"pcie.dma_writes", "count", c["pcie.dma.writes_total"], true},
		{"pcie.dma_reads", "count", c["pcie.dma.reads_total"], true},
		{"pcie.credit_stalls", "count", c["pcie.dma.credit_stalls_total"], true},
		{"dataplane.state_touches", "count", touches, true},
		{"dataplane.state_miss_ratio", "ratio", ratio(c["dataplane.module.state.misses_total"], touches), true},
		{"iosys.core_polls", "count", c["iosys.core.polls_total"], true},
		{"iosys.empty_poll_ratio", "ratio", ratio(c["iosys.core.empty_polls_total"], c["iosys.core.polls_total"]), true},
		{"iosys.flow_ops", "count", float64(first.flowOps), true},
		{"core.slow_path_ratio", "ratio", ratio(c["core.ceio.slow_packets_total"], c["core.ceio.fast_packets_total"]+c["core.ceio.slow_packets_total"]), true},
		{"core.credits_moved", "count", c["core.ceio.credits.moved_total"], true},
		{"fleet.migrations", "count", c["fleet.failover.migrations_total"], true},
		{"fleet.probes_sent", "count", c["fleet.probes.sent_total"], true},
		{"fabric.msgs_injected", "count", c["fabric.msgs.injected_total"], true},
		{"fabric.msgs_dropped", "count", c["fabric.msgs.dropped_total"], true},
		{"runtime.gc_cycles", "count", median(plain, func(r *rep) float64 { return float64(r.gcCycles) }), true},
		{"runtime.gc_pause_ms", "ms", median(plain, func(r *rep) float64 { return float64(r.gcPause) / 1e6 }), false},
		{"runner.busy_ratio", "ratio", median(plain, func(r *rep) float64 {
			return r.cpu.Seconds() / (r.span.Seconds() * float64(r.width))
		}), true},
		{"fleet.barrier_wait_s", "s", median(plain, func(r *rep) float64 {
			return r.span.Seconds()*float64(r.width) - r.cpu.Seconds()
		}), true},
	}
	for _, l := range layers {
		ms = append(ms,
			metric{l + ".self_s", "s", res.selfSeconds(l), !sparseLayers[l]},
			metric{l + ".self_share", "ratio", res.selfShare(l), true})
	}
	ms = append(ms,
		metric{"sim.ns_per_event", "ns", ratio(res.selfSeconds("sim")*1e9, allEvents), true},
		metric{"cache.ns_per_access", "ns", ratio(res.selfSeconds("cache")*1e9, cacheAccesses), true})
	for _, op := range []string{"add_flow", "remove_flow", "resume_flow"} {
		var v []float64
		for _, d := range res.tr.durations(op) {
			v = append(v, float64(d)/1e3)
		}
		ms = append(ms,
			metric{"iosys." + op + "_us_p50", "us", quantile(v, 0.50), op == "add_flow"},
			metric{"iosys." + op + "_us_p95", "us", quantile(v, 0.95), op == "add_flow"},
			metric{"iosys." + op + "_spans", "count", float64(len(v)), false})
	}
	for _, p := range []string{"construct", "admit", "warmup", "verify"} {
		ms = append(ms, metric{"phase." + p + "_s", "s", median(traced, func(r *rep) float64 { return r.scaled(r.phases[p]) }), true})
	}
	wall := func(r *rep) float64 { return r.scaled(r.wall) }
	ms = append(ms, metric{"trace.overhead_ratio", "ratio", median(traced, wall)/median(plain, wall) - 1, true})
	return ms
}

// sparseLayers are the layers some workload spends no time in: a
// datapath or subsystem only some workloads build, and telemetry, which
// the benchmark reads only outside the timed slices. Their self_s is 0 on
// those workloads, so the JSON line carries only their share.
var sparseLayers = map[string]bool{
	"baseline": true, "rdca": true, "dataplane": true, "fabric": true,
	"fleet": true, "runner": true, "telemetry": true,
}

// selfShare is layer l's share of the traced repetitions' profile.
func (res *result) selfShare(l string) float64 {
	var total float64
	for _, ns := range res.layerNs {
		total += ns
	}
	return ratio(res.layerNs[l], total)
}

// selfSeconds is layer l's CPU time per traced repetition: its profile
// share times the median process CPU time of a traced repetition.
func (res *result) selfSeconds(l string) float64 {
	return res.selfShare(l) * median(res.traced(), func(r *rep) float64 { return r.repCPU.Seconds() })
}

func (res *result) attempted() int {
	n := 0
	for _, r := range res.reps {
		n += r.attempted
	}
	return n
}

func (res *result) failed() int {
	n := 0
	for _, r := range res.reps {
		n += r.failed
	}
	return n
}

// digest is the model digest of the first repetition.
func (res *result) digest() uint64 { return res.reps[0].digest.Sum64() }

// deterministic reports whether every repetition reproduced the first
// one's simulated outputs exactly.
func (res *result) deterministic() bool {
	for _, r := range res.reps[1:] {
		if r.digest.Sum64() != res.digest() || r.model != res.reps[0].model || r.events != res.reps[0].events {
			return false
		}
	}
	return true
}

// correct reports whether every slice passed its oracles, every final
// audit was clean, and the repetitions agree.
func (res *result) correct() bool {
	for _, r := range res.reps {
		if len(r.failures) > 0 {
			return false
		}
	}
	return res.failed() == 0 && res.deterministic()
}

// environment describes where the numbers were measured.
func (res *result) environment() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	var samples uint64
	for _, r := range res.reps {
		samples += r.model.samples
	}
	return fmt.Sprintf("commit=%s nproc=%d gomaxprocs=%d cpu=%q go=%s pool_width=%d seed=%d reps=%d traced_reps=%d slices=%d latency_samples=%d",
		commit, runtime.NumCPU(), benchProcs, cpuModel(), runtime.Version(),
		res.reps[0].width, res.opts.seed, len(res.reps), len(res.traced()), res.attempted(), samples)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// print writes the human-readable report, one metric per line, and ends
// with the JSON line: correct, attempted and failed slices, and the
// metrics BENCHMARK.json names for this mode.
func (res *result) print(w io.Writer) error {
	ms := res.endToEnd()
	if res.opts.traced {
		ms = res.perLayer()
	}
	fmt.Fprintf(w, "# workload=%s %s\n", res.workload, res.environment())
	for _, r := range res.reps {
		for _, f := range r.failures {
			fmt.Fprintf(w, "# FAIL %s\n", f)
		}
	}
	if !res.deterministic() {
		fmt.Fprintf(w, "# FAIL repetitions of one seed disagree on the simulated outputs\n")
	}
	out := map[string]any{}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
		}
		fmt.Fprintf(w, "%-28s %.6g %s\n", m.name, m.value, m.unit)
		if m.json {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	fmt.Fprintf(w, "%-28s %016x\n", "model.digest", res.digest())
	fmt.Fprintf(w, "%-28s %d\n", "model.latency_samples", res.reps[0].model.samples)
	fmt.Fprintf(w, "%-28s %d\n", "slices", res.attempted())
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct(),
		"attempted": res.attempted(),
		"failed":    res.failed(),
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

package experiments

import (
	"fmt"

	"ceio/internal/core"
	"ceio/internal/iosys"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// Ablation studies the individual design choices DESIGN.md calls out,
// beyond the paper's own Table 4 ablation:
//
//   - lazy vs eager credit release (§4.1's design choice)
//   - the PIAS-style MPQ scheduler §4.1 considers and rejects
//   - asynchronous vs synchronous slow-path access (§4.2)
//   - credit reallocation on/off (§4.1 Q3)
func Ablation(cfg Config) Table {
	tb := Table{
		Title:  "Ablation — CEIO design choices on the 1:1 mixed workload",
		Header: []string{"variant", "involved Mpps", "involved P99 (µs)", "fast-path share", "LLC miss"},
		Note:   "Lazy release demotes large-message CPU-bypass flows to the slow path; the MPQ strawman decays continuous RPC flows to low priority instead (§4.1); async drain overlaps PCIe reads with processing.",
	}
	mix := mixRatio{"1:1", 4, 4}
	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"full CEIO (lazy release)", func(o *core.Options) {}},
		{"eager credit release", func(o *core.Options) { o.LazyRelease = false }},
		{"MPQ scheduler (PIAS strawman)", func(o *core.Options) { o.MPQ = true }},
		{"synchronous slow-path access", func(o *core.Options) { o.AsyncDrain = false }},
		{"no credit reallocation", func(o *core.Options) { o.CreditRealloc = false }},
		{"no optimizations", func(o *core.Options) { o.AsyncDrain = false; o.CreditRealloc = false }},
	}

	// One cell per variant; each run constructs its own datapath so
	// replicas share nothing.
	res := runCells(cfg, len(variants), func(i int, c Config) ablationResult {
		opts := core.DefaultOptions()
		variants[i].mod(&opts)
		dp := core.New(opts)
		r := ablationResult{mixedResult: runMixedWith(c, dp, mix)}
		if t := dp.FastPackets + dp.SlowPackets; t > 0 {
			r.fastFrac = float64(dp.FastPackets) / float64(t)
			r.hasShare = true
		}
		return r
	})

	for k, v := range variants {
		reps := res[k]
		share := "-"
		var withShare []ablationResult
		for _, r := range reps {
			if r.hasShare {
				withShare = append(withShare, r)
			}
		}
		if len(withShare) > 0 {
			share = statOf(withShare, func(r ablationResult) float64 { return r.fastFrac }).pct()
		}
		tb.Rows = append(tb.Rows, []string{
			v.name,
			statOf(reps, func(r ablationResult) float64 { return r.involvedMpps }).f2(),
			statOf(reps, func(r ablationResult) float64 { return float64(r.involvedP99) }).us(),
			share,
			statOf(reps, func(r ablationResult) float64 { return r.missRate }).pct(),
		})
	}
	return tb
}

// ablationResult augments a mixed-workload measurement with the
// datapath's fast-path share for one variant run.
type ablationResult struct {
	mixedResult
	fastFrac float64
	hasShare bool
}

// mixedResult is one mixed-flow measurement: the CPU-involved throughput
// and worst flow P99, the LLC miss rate, and the bypass goodput.
type mixedResult struct {
	involvedMpps float64
	involvedP99  int64
	missRate     float64
	bypassGbps   float64
}

// runMixedWith measures a mixed-flow deployment (eRPC alongside LineFS,
// §6.3 "Performance in Mixed I/O Flows") on datapath dp: mix.involved
// CPU-involved flows take the first IDs, then mix.bypass LineFS flows.
func runMixedWith(cfg Config, dp iosys.Datapath, mix mixRatio) mixedResult {
	m := iosys.NewMachine(cfg.Machine, dp)
	id := 1
	for i := 0; i < mix.involved; i++ {
		m.AddFlow(workload.ERPCKV(id, 144, workload.DPDK))
		id++
	}
	for i := 0; i < mix.bypass; i++ {
		m.AddFlow(workload.LineFS(id, 1024, 1024))
		id++
	}
	measureWindow(m, cfg.Warmup, cfg.Measure)
	var res mixedResult
	res.involvedMpps = m.InvolvedMeter.Mpps(m.Eng.Now())
	res.bypassGbps = m.BypassMeter.Gbps(m.Eng.Now())
	res.missRate = m.LLC.MissRate()
	for fid, f := range m.Flows {
		if fid <= mix.involved {
			if v := f.Latency.P99(); v > res.involvedP99 {
				res.involvedP99 = v
			}
		}
	}
	return res
}

// SlowPathAblation evaluates the future-work direction §6.4 suggests:
// implementing CEIO's slow path over CPU-attached/on-NIC SRAM instead of
// the BlueField-3's on-board DRAM behind its internal PCIe switch, which
// the paper identifies as the source of the slow path's latency penalty.
func SlowPathAblation(cfg Config) Table {
	tb := Table{
		Title:  "Slow-path substrate ablation — forced slow path, single flow (future work, §6.4)",
		Header: []string{"msg size", "BF-3 on-NIC DRAM Gbps", "P50 µs", "NIC SRAM Gbps", "P50 µs"},
		Note:   "The paper attributes the slow path's penalty to the internal PCIe switch and on-NIC DRAM; SRAM removes most of both.",
	}
	sizes := []int{512, 4096}
	if !cfg.Quick {
		sizes = []int{64, 512, 4096, 16384}
	}
	// Cells: (size, substrate) with substrate innermost (DRAM, then SRAM).
	res := runCells(cfg, len(sizes)*2, func(i int, c Config) pathResult {
		if i%2 == 1 {
			c.Machine.NICMemLatency = 60 * sim.Nanosecond // no internal switch hop
			c.Machine.NICMemBandwidth = 100e9
		}
		return runPath(c, workload.MethodCEIOSlowPath, sizes[i/2], 0)
	})
	for si, size := range sizes {
		dram, sram := res[si*2], res[si*2+1]
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%dB", size),
			statOf(dram, gbpsOf).f2(), us(p50Of(dram)),
			statOf(sram, gbpsOf).f2(), us(p50Of(sram)),
		})
	}
	return tb
}

package experiments

import (
	"fmt"

	"ceio/internal/core"
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
	res := runCells(cfg, len(variants), func(i int, c Config) reads {
		opts := core.DefaultOptions()
		variants[i].mod(&opts)
		return measure(c, core.New(opts), mixedFlows(mixRatio{"1:1", 4, 4}), ablationCols, nil)
	})

	for k, v := range variants {
		reps := res[k]
		var shares []float64
		for _, r := range reps {
			if t := r.v[2] + r.v[3]; t > 0 {
				shares = append(shares, r.v[2]/t)
			}
		}
		share := "-"
		if len(shares) > 0 {
			share = statOf(shares, func(v float64) float64 { return v }).pct()
		}
		tb.Rows = append(tb.Rows, []string{
			v.name,
			colStat(reps, 0).f2(),
			colStat(reps, 1).us(),
			share,
			colStat(reps, 4).pct(),
		})
	}
	return tb
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
	res := runCells(cfg, len(sizes)*2, func(i int, c Config) reads {
		if i%2 == 1 {
			c.Machine.NICMemLatency = 60 * sim.Nanosecond // no internal switch hop
			c.Machine.NICMemBandwidth = 100e9
		}
		return runPath(c, workload.MethodCEIOSlowPath, sizes[i/2], 0)
	})
	for si, size := range sizes {
		row := append([]string{fmt.Sprintf("%dB", size)}, cells(res[si*2])...)
		tb.Rows = append(tb.Rows, append(row, cells(res[si*2+1])...))
	}
	return tb
}

// ablationCols are what each ablation cell reads: involved Mpps, the worst
// involved flow's P99, the window's fast- and slow-path packet counts the
// fast-path share is taken from, and the LLC miss ratio.
var ablationCols = []col{
	{name: "iosys.involved.rate_mpps"},
	{name: worstInvolvedP99},
	{name: "core.ceio.fast_packets_total", how: delta},
	{name: "core.ceio.slow_packets_total", how: delta},
	{name: "cache.llc.miss_ratio"},
}

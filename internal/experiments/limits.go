package experiments

import (
	"fmt"

	"ceio/internal/iosys"
	"ceio/internal/workload"
)

// Limits reproduces §6.3 "Scenarios where CEIO's Benefits are Limited":
// (a) low memory pressure — 64B VxLAN decapsulation with a small I/O
// footprint, where every method performs alike with <5% misses; and
// (b) large packets — jumbo-frame echo where the baseline reaches line
// rate despite a high miss rate because per-packet overheads amortise.
func Limits(cfg Config) []Table {
	return []Table{limitsLowPressure(cfg), limitsJumbo(cfg)}
}

func limitsLowPressure(cfg Config) Table {
	tb := Table{
		Title:  "§6.3 limits (a) — low memory pressure: 64B VxLAN decapsulation",
		Header: []string{"method", "Mpps", "LLC miss"},
		Note:   "Paper: baselines and CEIO all reach ~89 Mpps with <5% cache misses.",
	}
	res := runCells(cfg, len(workload.AllMethods), func(i int, c Config) reads {
		// Low footprint: the workload posts shallow rings, so in-flight
		// I/O stays far below the DDIO region.
		c.Machine.RxRingEntries = 256
		return measure(c, workload.NewDatapath(workload.AllMethods[i]), flowsOf(8, workload.VxLAN), lowPressureCols, nil)
	})
	for k, me := range workload.AllMethods {
		tb.Rows = append(tb.Rows, append([]string{string(me)}, cells(res[k])...))
	}
	return tb
}

func limitsJumbo(cfg Config) Table {
	tb := Table{
		Title:  "§6.3 limits (b) — large packets: jumbo-frame echo on the unmanaged baseline",
		Header: []string{"pkt size", "Gbps", "line-rate %", "LLC miss"},
		Note:   "Paper: >=4096B reaches line rate even with ~48% cache misses (per-packet overhead amortised).",
	}
	sizes := []int{1024, 4096, 9000}
	if cfg.Quick {
		sizes = []int{1024, 9000}
	}
	res := runCells(cfg, len(sizes), func(i int, c Config) reads {
		flows := flowsOf(8, func(id int) iosys.FlowSpec {
			spec := workload.Echo(id, sizes[i])
			// Echo with realistic per-packet touch cost plus payload scan.
			spec.Cost.PerPacket = 100
			return spec
		})
		return measure(c, workload.NewDatapath(workload.MethodBaseline), flows, jumboCols, nil)
	})
	for k, size := range sizes {
		line := cfg.Machine.LinkBandwidth * 8 / 1e9 * float64(size) / float64(size+cfg.Machine.EthOverhead)
		gbps := colStat(res[k], 0)
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%dB", size),
			gbps.f2(),
			gbps.fmtWith(func(v float64) string { return fmt.Sprintf("%.0f%%", v/line*100) }),
			colStat(res[k], 1).pct(),
		})
	}
	return tb
}

// lowPressureCols and jumboCols are what the two limits tables' cells
// read: delivered Mpps or Gbps, and the LLC miss ratio.
var (
	lowPressureCols = []col{{name: "iosys.delivered.rate_mpps", show: Stat.f2}, {name: "cache.llc.miss_ratio", show: Stat.pct}}
	jumboCols       = []col{{name: "iosys.delivered.rate_gbps"}, {name: "cache.llc.miss_ratio"}}
)

package experiments

import (
	"fmt"

	"ceio/internal/workload"
)

// mixRatio describes a Table 4 row: CPU-involved vs CPU-bypass flows
// among 8 total.
type mixRatio struct {
	label    string
	involved int
	bypass   int
}

var table4Ratios = []mixRatio{
	{"3:1", 6, 2},
	{"1:1", 4, 4},
	{"1:3", 2, 6},
}

// Table4 reproduces Table 4: throughput (Mpps) of CPU-involved flows and
// CEIO's speedup with and without the fast/slow path optimisations
// (credit reallocation and asynchronous drain), across involved:bypass
// ratios. The bypass goodput column shows where the async-drain
// optimisation lands in this model.
func Table4(cfg Config) Table {
	tb := Table{
		Title:  "Table 4 — CPU-involved throughput (Mpps) on mixed I/O flows, 8 flows total",
		Header: []string{"ratio", "Baseline", "CEIO w/o optimization", "CEIO", "bypass Gbps (w/o opt -> full)"},
		Note:   "Paper: optimisations lift CEIO from 1.16-1.53x to 1.71-1.94x over the baseline.",
	}
	ratios := table4Ratios
	if cfg.Quick {
		ratios = table4Ratios[:2]
	}
	methods := []workload.Method{workload.MethodBaseline, workload.MethodCEIONoOpt, workload.MethodCEIO}

	// Enumerate (ratio, method) cells, methods innermost.
	res := runCells(cfg, len(ratios)*len(methods), func(i int, c Config) mixedResult {
		return runMixedWith(c, workload.NewDatapath(methods[i%len(methods)]), ratios[i/len(methods)])
	})

	involved := func(r mixedResult) float64 { return r.involvedMpps }
	bypass := func(r mixedResult) float64 { return r.bypassGbps }
	for ri, mix := range ratios {
		k := ri * len(methods)
		base := statOf(res[k], involved)
		noopt := statOf(res[k+1], involved)
		full := statOf(res[k+2], involved)
		tb.Rows = append(tb.Rows, []string{
			mix.label,
			fmt.Sprintf("%s (-)", base.f2()),
			speedupStat(noopt, base),
			speedupStat(full, base),
			fmt.Sprintf("%s -> %s", statOf(res[k+1], bypass).f2(), statOf(res[k+2], bypass).f2()),
		})
	}
	return tb
}

package experiments

import (
	"fmt"

	"ceio/internal/iosys"
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

	// Cells are (ratio, method), methods innermost.
	res := runCells(cfg, len(ratios)*len(methods), func(i int, c Config) reads {
		return measure(c, workload.NewDatapath(methods[i%len(methods)]), mixedFlows(ratios[i/len(methods)]), table4Cols, nil)
	})
	for ri, mix := range ratios {
		k := ri * len(methods)
		base := colStat(res[k], 0)
		tb.Rows = append(tb.Rows, []string{
			mix.label,
			fmt.Sprintf("%s (-)", base.f2()),
			speedupStat(colStat(res[k+1], 0), base),
			speedupStat(colStat(res[k+2], 0), base),
			fmt.Sprintf("%s -> %s", colStat(res[k+1], 1).f2(), colStat(res[k+2], 1).f2()),
		})
	}
	return tb
}

// mixedFlows is a mixed-flow deployment (eRPC alongside LineFS, §6.3
// "Performance in Mixed I/O Flows"): mix.involved CPU-involved flows
// take the first IDs, then mix.bypass LineFS flows.
func mixedFlows(mix mixRatio) []iosys.FlowSpec {
	return flowsOf(mix.involved+mix.bypass, func(id int) iosys.FlowSpec {
		if id <= mix.involved {
			return workload.ERPCKV(id, 144, workload.DPDK)
		}
		return workload.LineFS(id, 1024, 1024)
	})
}

// table4Cols are what each Table 4 cell reads: involved Mpps and bypass
// Gbps.
var table4Cols = []col{{name: "iosys.involved.rate_mpps"}, {name: "iosys.bypass.rate_gbps"}}

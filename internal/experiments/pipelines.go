package experiments

import (
	"strings"

	"ceio/internal/iosys"
	"ceio/internal/workload"
)

// pipelineCompositions are the module chains the pipelines experiment
// sweeps, from a single light module to a full service chain. Working
// sets grow left to right: nat64 alone fits comfortably beside the DDIO
// region, while the 4-stage chain carries several MB of module state
// that competes with in-flight I/O buffers for the same LLC ways.
var pipelineCompositions = [][]string{
	{"nat64"},
	{"acl-trie", "firewall"},
	{"upf", "firewall"},
	{"nat64", "acl-linear", "vxlan", "upf"},
}

// Pipelines sweeps dataplane module compositions over the mixed
// workload: four eRPC KV flows each running the composition's chain,
// plus two LineFS bulk writers as DMA antagonists. The baseline's
// unbounded in-flight I/O evicts both packet buffers and module state
// tables, so heavy chains pay DRAM refills on most state touches; CEIO's
// credit bound caps the I/O footprint, leaving LLC capacity for the
// module working sets and holding both miss rates down (§2.2's
// interference argument, extended to NF state).
func Pipelines(cfg Config) Table {
	tb := Table{
		Title:  "Pipelines — dataplane module chains, 4 KV flows + 2 DFS antagonists",
		Header: []string{"pipeline", "Baseline Mpps", "Baseline I/O miss", "Baseline state miss", "CEIO Mpps", "CEIO I/O miss", "CEIO state miss"},
		Note:   "Each KV packet traverses the chain, paying module cycles plus state-table LLC accesses. Baseline DMA pressure evicts module state alongside I/O buffers; CEIO's credit bound leaves LLC room for the working sets.",
	}
	comps := pipelineCompositions
	methods := []workload.Method{workload.MethodBaseline, workload.MethodCEIO}
	// Cells are (composition, method) with method innermost.
	res := runCells(cfg, len(comps)*len(methods), func(i int, c Config) reads {
		chain := comps[i/len(methods)]
		flows := flowsOf(6, func(id int) iosys.FlowSpec {
			if id > 4 {
				return workload.LineFS(id, 1024, 1024)
			}
			spec := workload.ERPCKV(id, 144, workload.DPDK)
			spec.Pipeline = chain
			return spec
		})
		return measure(c, workload.NewDatapath(methods[i%len(methods)]), flows, pipelinesCols, nil)
	})
	for k, chain := range comps {
		row := append([]string{strings.Join(chain, "+")}, cells(res[k*len(methods)])...)
		tb.Rows = append(tb.Rows, append(row, cells(res[k*len(methods)+1])...))
	}
	return tb
}

// pipelinesCols are what each pipelines cell reads: involved Mpps, the
// I/O-path LLC miss ratio and the modules' state miss ratio.
var pipelinesCols = []col{
	{name: "iosys.involved.rate_mpps", show: Stat.f2},
	{name: "cache.llc.miss_ratio", show: Stat.pct},
	{name: "dataplane.state.miss_ratio", show: Stat.pct},
}

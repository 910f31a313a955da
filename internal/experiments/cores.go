package experiments

import (
	"fmt"

	"ceio/internal/iosys"
	"ceio/internal/workload"
)

// Cores sweeps the multi-queue CPU model across 1/2/4/8 cores: a weak
// scaling run where every core brings its own service population (two
// eRPC KV flows pinned to it) and the machine-wide antagonist load grows
// with it (one LineFS bulk writer per core). On the unmanaged baseline
// the aggregate in-flight I/O grows with the core count and thrashes the
// shared DDIO region, so the hit rate degrades as cores are added; CEIO's
// credit bound — carved into per-core shares — caps in-flight data at
// C_total regardless of core count, so its hit rate holds at 8 cores.
// This is the regime the paper's multi-core Xeon testbed runs in (§6.1)
// with rx traffic spread across queues by RSS.
func Cores(cfg Config) Table {
	tb := Table{
		Title:  "Cores — RSS multi-queue weak scaling, 2 KV + 1 DFS flow per core",
		Header: []string{"cores", "Baseline Mpps", "Baseline miss", "CEIO Mpps", "CEIO miss"},
		Note:   "Baseline in-flight I/O grows with core count and thrashes the shared DDIO region; CEIO's per-core credit shares keep the aggregate bounded at C_total, holding the hit rate flat through 8 cores.",
	}
	counts := []int{1, 2, 4, 8}
	methods := []workload.Method{workload.MethodBaseline, workload.MethodCEIO}
	// Cells are (core count, method) with method innermost.
	res := runCells(cfg, len(counts)*len(methods), func(i int, c Config) reads {
		n := counts[i/len(methods)]
		c.Machine.Cores = n
		// Queue q carries flows 3q-2 and 3q-1 (KV) and 3q (LineFS).
		flows := flowsOf(3*n, func(id int) iosys.FlowSpec {
			spec := workload.ERPCKV(id, 144, workload.DPDK)
			if id%3 == 0 {
				spec = workload.LineFS(id, 1024, 1024)
			}
			spec.Queue = (id + 2) / 3
			return spec
		})
		return measure(c, workload.NewDatapath(methods[i%len(methods)]), flows, coresCols, nil)
	})
	for k, n := range counts {
		row := append([]string{fmt.Sprintf("%d", n)}, cells(res[k*len(methods)])...)
		tb.Rows = append(tb.Rows, append(row, cells(res[k*len(methods)+1])...))
	}
	return tb
}

// coresCols are what each cores cell reads: involved Mpps and the LLC
// miss ratio.
var coresCols = []col{{name: "iosys.involved.rate_mpps", show: Stat.f2}, {name: "cache.llc.miss_ratio", show: Stat.pct}}

package experiments

import (
	"fmt"

	"ceio/internal/iosys"
	"ceio/internal/workload"
)

// Stack identifies the three benchmark datapath stacks of Fig. 9/Table 2.
type Stack string

// The three evaluated stacks.
const (
	StackERPCDPDK Stack = "eRPC(DPDK)"
	StackERPCRDMA Stack = "eRPC(RDMA)"
	StackLineFS   Stack = "LineFS"
)

// AllStacks in the paper's column order.
var AllStacks = []Stack{StackERPCDPDK, StackERPCRDMA, StackLineFS}

// specFor builds the 8-flow population for a stack at a packet size.
func specFor(stack Stack, id, pktSize int) iosys.FlowSpec {
	switch stack {
	case StackERPCDPDK:
		return workload.ERPCKV(id, pktSize, workload.DPDK)
	case StackERPCRDMA:
		return workload.ERPCKV(id, pktSize, workload.RDMA)
	case StackLineFS:
		// Fig. 9c sweeps the *chunk size*: each write-with-immediate
		// carries one chunk of the tested size, so credits replenish per
		// chunk and the flows exercise the fast path.
		return workload.LineFS(id, pktSize, 1)
	default:
		panic(fmt.Sprintf("experiments: unknown stack %q", stack))
	}
}

// fig9Cols are what each Fig. 9 cell reads: delivered Mpps and the
// LLC miss ratio.
var fig9Cols = []col{{name: "iosys.delivered.rate_mpps"}, {name: "cache.llc.miss_ratio"}}

// runStatic measures one Fig. 9 cell: eight flows of the stack under the
// method, at the packet size, in steady state.
func runStatic(c Config, stack Stack, method workload.Method, pktSize int) reads {
	flows := flowsOf(8, func(id int) iosys.FlowSpec { return specFor(stack, id, pktSize) })
	return measure(c, workload.NewDatapath(method), flows, fig9Cols, nil)
}

// Fig9 reproduces Figure 9: throughput and LLC miss rate versus packet
// size (128B-1024B) for the three stacks under all four methods. One
// table per stack, matching the sub-figures 9a/9b/9c.
func Fig9(cfg Config) []Table {
	sizes := []int{128, 256, 512, 1024}
	if cfg.Quick {
		sizes = []int{256, 1024}
	}

	// Cells are (stack, size, method) in render order, methods innermost,
	// so each row's baseline occupies the first slot of its group.
	methods := workload.AllMethods
	res := runCells(cfg, len(AllStacks)*len(sizes)*len(methods), func(i int, c Config) reads {
		group := i / len(methods)
		return runStatic(c, AllStacks[group/len(sizes)], methods[i%len(methods)], sizes[group%len(sizes)])
	})

	// Render from the index-ordered slots.
	var tables []Table
	k := 0
	for _, stack := range AllStacks {
		tb := Table{
			Title:  fmt.Sprintf("Figure 9 — %s: throughput and LLC miss rate vs packet size", stack),
			Header: []string{"pkt size"},
			Note:   "Paper shape: CEIO reduces miss rate from ~88% to ~1% and wins throughput; gains shrink as packets grow.",
		}
		for _, me := range methods {
			tb.Header = append(tb.Header, string(me)+" Mpps", string(me)+" miss")
		}
		for _, size := range sizes {
			row := []string{fmt.Sprintf("%dB", size)}
			var base Stat
			for _, me := range methods {
				mpps, miss := colStat(res[k], 0), colStat(res[k], 1)
				k++
				if me == workload.MethodBaseline {
					base = mpps
				}
				row = append(row, speedupStat(mpps, base), miss.pct())
			}
			tb.Rows = append(tb.Rows, row)
		}
		tables = append(tables, tb)
	}
	return tables
}

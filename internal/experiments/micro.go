package experiments

import (
	"fmt"

	"ceio/internal/iosys"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// pathCols are what each Fig. 11 / Table 3 cell reads: the single
// flow's goodput and its P50 latency.
var pathCols = []col{{name: "iosys.delivered.rate_gbps", show: Stat.f2}, {name: "iosys.delivery.latency_ns", how: p50, show: Stat.us}}

// runPath measures a single RDMA-write-style flow (CPU-bypass) of the
// given message size through one datapath variant. rateCap, when set,
// pins the sender rate (latency probes run unloaded, like ib_write_lat).
func runPath(c Config, method workload.Method, msgSize int, rateCap float64) reads {
	spec := iosys.FlowSpec{ID: 1, Kind: iosys.CPUBypass, PktSize: msgSize, MsgPkts: 1}
	if rateCap > 0 {
		c.Machine.CC.MaxRate = rateCap
		c.Machine.CC.MinRate = rateCap
		spec.InitialRate = rateCap
	}
	return measure(c, workload.NewDatapath(method), []iosys.FlowSpec{spec}, pathCols, nil)
}

// pathMethods are the three datapath variants Fig. 11 and Table 3
// compare, in column order.
var pathMethods = []workload.Method{workload.MethodBaseline, workload.MethodCEIO, workload.MethodCEIOSlowPath}

// runPathCells measures every (size, variant) cell: raw, fast, slow per
// size, methods innermost.
func runPathCells(cfg Config, sizes []int, rateCap float64) [][]reads {
	return runCells(cfg, len(sizes)*len(pathMethods), func(i int, c Config) reads {
		return runPath(c, pathMethods[i%len(pathMethods)], sizes[i/len(pathMethods)], rateCap)
	})
}

// Fig11 reproduces Figure 11: single-flow throughput of the CEIO fast
// path and slow path versus message size, against ib_write_bw (the raw
// RDMA write data path with no CEIO logic).
func Fig11(cfg Config) Table {
	sizes := []int{64, 256, 1024, 4096, 16384}
	if cfg.Quick {
		sizes = []int{512, 4096}
	}
	tb := Table{
		Title:  "Figure 11 — fast path vs slow path vs ib_write_bw (single flow, Gbps)",
		Header: []string{"msg size", "ib_write_bw", "CEIO fast", "CEIO slow", "slow/fast"},
		Note:   "Paper shape: fast path tracks ib_write_bw (flow-control overhead negligible); slow path approaches it beyond 4KB with the gap under ~22%.",
	}
	res := runPathCells(cfg, sizes, 0)
	for si, size := range sizes {
		k := si * len(pathMethods)
		raw, fast, slow := colStat(res[k], 0), colStat(res[k+1], 0), colStat(res[k+2], 0)
		gap := "-"
		if fast.Mean > 0 {
			gap = fmt.Sprintf("%.0f%%", slow.Mean/fast.Mean*100)
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%dB", size), raw.f2(), fast.f2(), slow.f2(), gap,
		})
	}
	return tb
}

// Table3 reproduces Table 3: unloaded latency (ib_write_lat style) of the
// RDMA write baseline versus the CEIO fast and slow paths.
func Table3(cfg Config) Table {
	sizes := []int{64, 1024, 4096}
	if cfg.Quick {
		sizes = []int{64, 4096}
	}
	const probeRate = 2e8 // ~1.6 Gbps: unloaded, no queueing
	tb := Table{
		Title:  "Table 3 — latency (µs) of CEIO fast/slow paths vs raw RDMA write",
		Header: []string{"msg size", "RDMA write", "fast path", "slow path", "fast/raw", "slow/raw"},
		Note:   "Paper: CEIO adds 1.10-1.48x latency from the on-NIC control logic; slow path adds the on-NIC memory round trip.",
	}
	res := runPathCells(cfg, sizes, probeRate)
	for si, size := range sizes {
		k := si * len(pathMethods)
		raw, fast, slow := colStat(res[k], 1).Mean, colStat(res[k+1], 1).Mean, colStat(res[k+2], 1).Mean
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%dB", size), us(raw), us(fast), us(slow),
			fmt.Sprintf("%.2fx", ratio(fast, raw)),
			fmt.Sprintf("%.2fx", ratio(slow, raw)),
		})
	}
	return tb
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Table2 reproduces Table 2: P99 and P99.9 latency of the 512B echo
// workload under load, for the three stacks and four methods.
func Table2(cfg Config) Table {
	tb := Table{
		Title:  "Table 2 — P99 / P99.9 latency (µs), 512B echo workload",
		Header: []string{"method"},
		Note:   "Paper: CEIO cuts P99 by 1.98-4.17x and P99.9 by 2.39-4.73x versus the baseline.",
	}
	for _, st := range AllStacks {
		tb.Header = append(tb.Header, string(st)+" P99", string(st)+" P99.9")
	}
	// Cells are (method, stack), stacks innermost.
	res := runCells(cfg, len(fig10Methods)*len(AllStacks), func(i int, c Config) reads {
		st := AllStacks[i%len(AllStacks)]
		flows := flowsOf(8, func(id int) iosys.FlowSpec { return echoSpecFor(st, id) })
		return measure(c, workload.NewDatapath(fig10Methods[i/len(AllStacks)]), flows, table2Cols, nil)
	})

	base := res[:len(AllStacks)] // the Baseline row's cells
	k := 0
	for _, me := range fig10Methods {
		row := []string{string(me)}
		for si := range AllStacks {
			for q := range table2Cols {
				v := colStat(res[k], q).Mean
				if me == workload.MethodBaseline {
					row = append(row, us(v))
				} else {
					row = append(row, reduction(v, colStat(base[si], q).Mean))
				}
			}
			k++
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

// echoSpecFor builds the 512B echo flow on each stack. The echo servers
// perform realistic per-request work (descriptor handling, response
// construction) so that, as in the paper's setup, the receiver is loaded
// and queueing dominates the tail.
func echoSpecFor(st Stack, id int) iosys.FlowSpec {
	switch st {
	case StackERPCDPDK:
		s := workload.Echo(id, 512)
		s.Cost.PerPacket = 150 * sim.Nanosecond
		return s
	case StackERPCRDMA:
		s := workload.Echo(id, 512)
		s.Cost.PerPacket = 170 * sim.Nanosecond
		return s
	default:
		// LineFS: CPU-bypass 512B echo-style writes with replication and
		// logging; small messages keep the lazy-release batches short.
		return workload.LineFS(id, 512, 16)
	}
}

// table2Cols are what each Table 2 cell reads: the P99 and P99.9 of the
// machine's delivery latency, over all eight flows.
var table2Cols = []col{{name: "iosys.delivery.latency_ns", how: p99}, {name: "iosys.delivery.latency_ns", how: p999}}

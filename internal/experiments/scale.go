package experiments

import (
	"fmt"

	"ceio/internal/iosys"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// Fig12 reproduces Figure 12: CEIO's aggregate throughput with a 512B
// echo workload in RDMA UD mode as the number of established flows
// grows, for several destination-rotation time slots. The client keeps
// 16 flows active concurrently and re-picks them at each slot boundary;
// the active-flow strategy must chase the rotation to keep credits on
// the flows carrying traffic.
func Fig12(cfg Config) Table {
	counts := []int{16, 128, 512, 1024, 2048, 4096}
	slots := []sim.Time{100 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond}
	duration := 20 * sim.Millisecond
	if cfg.Quick {
		counts = []int{16, 256, 1024}
		duration = 6 * sim.Millisecond
	}
	tb := Table{
		Title:  "Figure 12 — aggregate throughput (Gbps) vs flow count, 512B echo (RDMA UD)",
		Header: []string{"flows"},
		Note:   "Paper shape: stable at slow rotation (>=1ms); with 100-500µs slots throughput sags beyond ~1K flows as the round-robin re-activation falls behind and traffic lands on the slow path.",
	}
	for _, slot := range slots {
		tb.Header = append(tb.Header, fmt.Sprintf("slot %v", slot))
	}

	// Enumerate (count, slot) cells, slots innermost.
	res := runCells(cfg, len(counts)*len(slots), func(i int, c Config) reads {
		return runFlowScale(c, counts[i/len(slots)], slots[i%len(slots)], duration)
	})

	k := 0
	for _, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for range slots {
			row = append(row, colStat(res[k], 0).f2())
			k++
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

// runFlowScale measures aggregate goodput with n established UD flows
// and 16 active at a time, rotating every slot.
func runFlowScale(c Config, n int, slot, duration sim.Time) reads {
	share := c.Machine.LinkBandwidth / 16
	flows := flowsOf(n, func(id int) iosys.FlowSpec {
		spec := workload.Echo(id, 512)
		spec.InitialRate = share
		spec.FixedRate = true // RDMA UD: no transport congestion control
		return spec
	})
	arm := func(m *iosys.Machine) {
		for id := 1; id <= n; id++ {
			m.PauseFlow(id)
		}
		active := make([]int, 0, 16)
		m.Eng.Every(0, slot, func() {
			for _, id := range active {
				m.PauseFlow(id)
			}
			active = active[:0]
			for _, k := range m.Eng.Rand().Perm(n)[:min(16, n)] {
				m.ResumeFlow(k + 1)
				active = append(active, k+1)
			}
		})
	}
	c.Warmup, c.Measure = duration/4, duration-duration/4
	return measure(c, workload.NewDatapath(workload.MethodCEIO), flows, fig12Cols, arm)
}

// fig12Cols is what each Fig. 12 cell reads: delivered goodput.
var fig12Cols = []col{{name: "iosys.delivered.rate_gbps"}}

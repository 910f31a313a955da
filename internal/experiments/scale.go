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
	res := runCells(cfg, len(counts)*len(slots), func(i int, c Config) float64 {
		return runFlowScale(c, counts[i/len(slots)], slots[i%len(slots)], duration)
	})

	k := 0
	for _, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for range slots {
			row = append(row, statOf(res[k], func(v float64) float64 { return v }).f2())
			k++
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

// runFlowScale measures aggregate goodput with n established UD flows
// and 16 active at a time, rotating every slot.
func runFlowScale(cfg Config, n int, slot, duration sim.Time) float64 {
	m := iosys.NewMachine(cfg.Machine, workload.NewDatapath(workload.MethodCEIO))
	ids := make([]int, n)
	share := cfg.Machine.LinkBandwidth / 16
	for i := 0; i < n; i++ {
		spec := workload.Echo(i+1, 512)
		spec.InitialRate = share
		spec.FixedRate = true // RDMA UD: no transport congestion control
		m.AddFlow(spec)
		m.PauseFlow(i + 1)
		ids[i] = i + 1
	}
	active := make([]int, 0, 16)
	rotate := func() {
		for _, id := range active {
			m.PauseFlow(id)
		}
		active = active[:0]
		perm := m.Eng.Rand().Perm(n)
		for _, k := range perm[:min(16, n)] {
			id := ids[k]
			m.ResumeFlow(id)
			active = append(active, id)
		}
	}
	m.Eng.Every(0, slot, rotate)
	m.Run(duration / 4)
	m.ResetWindow()
	m.Run(duration)
	return m.Delivered.Gbps(m.Eng.Now())
}

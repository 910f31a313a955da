package experiments

import (
	"ceio/internal/iosys"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// burstShape is an on/off incast pattern applied to all eight flows.
type burstShape struct {
	name    string
	on, off sim.Time
}

// Burstiness extends the Fig. 10b burst story: eight KV flows shaped
// into synchronized on/off incast bursts at several duty cycles. ShRing
// must absorb each burst inside its fixed shared budget — overflow means
// drops and CCA back-off — while CEIO parks the overflow in on-NIC
// memory. The table reports per-method goodput, drop counts, and P99.
func Burstiness(cfg Config) Table {
	shapes := []burstShape{
		{"continuous", 0, 0},
		{"500µs on / 500µs off", 500 * sim.Microsecond, 500 * sim.Microsecond},
		{"200µs on / 800µs off", 200 * sim.Microsecond, 800 * sim.Microsecond},
	}
	if cfg.Quick {
		shapes = shapes[:2]
	}
	methods := []workload.Method{workload.MethodShRing, workload.MethodCEIO}

	// Cells are (shape, method), methods innermost.
	res := runCells(cfg, len(shapes)*len(methods), func(i int, c Config) reads {
		sh := shapes[i/len(methods)]
		flows := flowsOf(8, func(id int) iosys.FlowSpec {
			spec := workload.ERPCKV(id, 256, workload.DPDK)
			spec.BurstOn, spec.BurstOff = sh.on, sh.off
			return spec
		})
		return measure(c, workload.NewDatapath(methods[i%len(methods)]), flows, burstCols, nil)
	})

	tb := Table{
		Title:  "Burst sensitivity — 8 incast KV flows, on/off shaped (extension of Fig. 10b)",
		Header: []string{"burst shape", "method", "Mpps", "drops", "P99 (µs)", "LLC miss"},
		Note:   "The elastic buffer absorbs synchronized bursts that overflow ShRing's fixed budget (drops -> loss back-off).",
	}
	for k, reps := range res {
		row := []string{shapes[k/len(methods)].name, string(methods[k%len(methods)])}
		tb.Rows = append(tb.Rows, append(row, cells(reps)...))
	}
	return tb
}

// burstCols are what each burst cell reads: delivered Mpps, drops in the
// window, the P99 of the machine's delivery latency and the LLC miss
// ratio.
var burstCols = []col{
	{name: "iosys.delivered.rate_mpps", show: Stat.f2},
	{name: "iosys.drops_total", how: delta, show: Stat.count},
	{name: "iosys.delivery.latency_ns", how: p99, show: Stat.us},
	{name: "cache.llc.miss_ratio", show: Stat.pct},
}

package experiments

import (
	"fmt"

	"ceio/internal/iosys"
	"ceio/internal/rdca"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// rdcaWindows is the fixed-window sweep of the RDCA experiment's
// receiver-driven admission window, bracketing the adaptive controller.
var rdcaWindows = []int{16, 64, 256}

// rdcaVariant names one datapath contender of the RDCA experiment.
type rdcaVariant struct {
	name string
	dp   func() iosys.Datapath
}

// rdcaVariants builds the contender list: the unmanaged baseline and
// CEIO as references, the fixed-window RDCA sweep, and the adaptive
// window controller. Quick mode keeps a single width.
func rdcaVariants(cfg Config) []rdcaVariant {
	windows := rdcaWindows
	if cfg.Quick {
		windows = []int{64}
	}
	vs := []rdcaVariant{
		{string(workload.MethodBaseline), func() iosys.Datapath { return workload.NewDatapath(workload.MethodBaseline) }},
		{string(workload.MethodCEIO), func() iosys.Datapath { return workload.NewDatapath(workload.MethodCEIO) }},
	}
	for _, w := range windows {
		w := w
		vs = append(vs, rdcaVariant{
			fmt.Sprintf("RDCA w=%d", w),
			func() iosys.Datapath { return rdca.New(rdca.Options{FixedWindow: w}) },
		})
	}
	vs = append(vs, rdcaVariant{
		"RDCA adaptive",
		func() iosys.Datapath { return rdca.New(rdca.DefaultOptions()) },
	})
	return vs
}

// rdcaLatencyCols and rdcaBurstCols are what the two tables' cells
// read. Each table reports the CPU-involved flows' side and the bypass
// side it is about, the LLC miss ratio and the drops in the window.
var (
	rdcaLatencyCols = []col{
		{name: "iosys.involved.rate_mpps", show: Stat.f2},
		{name: worstInvolvedP99, show: Stat.us},
		{name: "cache.llc.miss_ratio", show: Stat.pct},
		{name: "iosys.drops_total", how: delta, show: Stat.count},
	}
	rdcaBurstCols = []col{
		{name: "iosys.bypass.rate_gbps", show: Stat.f2},
		{name: "iosys.involved.rate_mpps", show: Stat.f2},
		{name: "cache.llc.miss_ratio", show: Stat.pct},
		{name: "iosys.drops_total", how: delta, show: Stat.count},
	}
)

// rdcaTable fills tb with one row per rdca variant: flows measured
// reading cols, on a DDIO region of llcBytes when that is positive.
func rdcaTable(cfg Config, tb Table, flows []iosys.FlowSpec, cols []col, llcBytes int64) Table {
	variants := rdcaVariants(cfg)
	res := runCells(cfg, len(variants), func(i int, c Config) reads {
		if llcBytes > 0 {
			c.Machine.LLCBytes = llcBytes
		}
		return measure(c, variants[i].dp(), flows, cols, nil)
	})
	for k, v := range variants {
		tb.Rows = append(tb.Rows, append([]string{v.name}, cells(res[k])...))
	}
	return tb
}

// RDCA contrasts the receiver-driven cache-residency datapath
// (internal/rdca) with CEIO on the two workload shapes where each
// design's bet pays off:
//
//   - Latency-bound KV: rate-limited eRPC flows beside a paced bulk
//     writer. Every packet rides the cache-resident window; RDCA's
//     receiver-side window check costs nanoseconds where CEIO's on-NIC
//     credit controller pays ~150ns per packet, so RDCA's tail is lower.
//   - Bursty DFS writes: on/off bulk writers whose on-phase arrival rate
//     exceeds the drain rate. CEIO absorbs the excess into its elastic
//     on-NIC buffer and keeps the link busy through the off-phase; RDCA
//     has no elastic buffer — the bounded window plus parked-backlog cap
//     drops the burst tail and throughput collapses with the window.
//
// The fixed-window sweep shows the trade directly: small windows hold
// residency but starve bursts; large windows outrun the partition and
// evict in-flight buffers; the adaptive controller tracks the knee.
func RDCA(cfg Config) []Table {
	return []Table{rdcaLatency(cfg), rdcaBurst(cfg)}
}

// rdcaLatency is the latency-bound KV table: 4 eRPC KV flows pinned at
// 4 Gbps each (fixed rate, no CC) plus one paced 30 Gbps LineFS writer
// keeping DDIO pressure on the shared partition.
func rdcaLatency(cfg Config) Table {
	tb := Table{
		Title:  "RDCA — latency-bound KV (4 × 4 Gbps eRPC + 30 Gbps DFS, fixed rates)",
		Header: []string{"datapath", "involved Mpps", "involved P99 (µs)", "LLC miss", "drops"},
		Note:   "Offered load is fixed below capacity, so throughput ties and the tail isolates per-packet control cost: RDCA's receiver-side window check vs CEIO's ~150ns on-NIC credit controller.",
	}
	flows := flowsOf(5, func(id int) iosys.FlowSpec {
		spec := workload.ERPCKV(id, 144, workload.DPDK)
		spec.InitialRate = 4e9 / 8
		if id == 5 {
			spec = workload.LineFS(id, 1024, 1024)
			spec.InitialRate = 30e9 / 8
		}
		spec.FixedRate = true
		return spec
	})
	return rdcaTable(cfg, tb, flows, rdcaLatencyCols, 0)
}

// rdcaBurst is the bursty DFS table: two congestion-controlled LineFS
// writers in phase-locked 1ms-on / 1ms-off bursts, plus two KV flows
// running a state-heavy service chain, on a machine whose DDIO region
// is constrained to 1 MB (the realistic case: the rx path may only pin
// a few LLC ways, the rest belongs to application state). The on-phase
// arrival rate exceeds what a 1 MB-resident window can pipeline, so
// sustained throughput depends on how much burst the datapath can park.
func rdcaBurst(cfg Config) Table {
	tb := Table{
		Title:  "RDCA — bursty DFS writes (2 × LineFS, 1ms on / 1ms off, + 2 KV; 1 MB DDIO region)",
		Header: []string{"datapath", "bypass Gbps", "involved Mpps", "LLC miss", "drops"},
		Note:   "CEIO parks the burst excess in its elastic on-NIC buffer and drains through the off-phase; RDCA's window is capped by the scarce DDIO region and has nowhere to park it — the backlog cap drops the tail and the CCA backs off.",
	}
	flows := flowsOf(4, func(id int) iosys.FlowSpec {
		if id <= 2 {
			spec := workload.LineFS(id, 1024, 1024)
			spec.BurstOn = 1 * sim.Millisecond
			spec.BurstOff = 1 * sim.Millisecond
			return spec
		}
		spec := workload.ERPCKV(id, 144, workload.DPDK)
		// A state-heavy service chain contends for the same LLC ways the
		// rx window pins: with the partition genuinely scarce, cache
		// residency cannot hold the burst and the adaptive window shrinks
		// instead of growing to meet it.
		spec.Pipeline = []string{"upf", "firewall"}
		return spec
	})
	// The scarce-DDIO machine: 1 MB of LLC for I/O instead of 6 MB.
	// CEIO's credit pool shrinks with it (Eq. 1) but its elastic buffer
	// does not; RDCA's window cap shrinks with it, period.
	return rdcaTable(cfg, tb, flows, rdcaBurstCols, 1<<20)
}

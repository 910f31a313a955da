// kvstore compares the four I/O architectures on the paper's headline
// workload: an eRPC-style key-value server handling eight small-packet
// request flows at 200 Gbps — the regime where in-flight I/O data
// overwhelms the DDIO region of the LLC (Figure 9).
//
//	go run ./examples/kvstore [-pkt 256]
package main

import (
	"flag"
	"fmt"

	"ceio"
)

func main() {
	pkt := flag.Int("pkt", 256, "request packet size in bytes")
	flag.Parse()

	fmt.Printf("eRPC key-value store, 8 flows, %dB requests, 200 Gbps ingress\n\n", *pkt)
	fmt.Printf("%-10s %12s %12s %10s %12s\n", "arch", "Mpps", "Gbps", "LLC miss", "P99.9 (µs)")

	var baseMpps float64
	for _, arch := range []ceio.Architecture{ceio.ArchBaseline, ceio.ArchHostCC, ceio.ArchShRing, ceio.ArchCEIO} {
		sim := ceio.NewSimulator(ceio.DefaultConfig(), arch)
		// Each request's server CPU time comes from the KV flow's
		// workload cost model.
		for i := 1; i <= 8; i++ {
			sim.AddFlow(ceio.KVFlow(i, *pkt))
		}
		sim.RunFor(10 * ceio.Millisecond)
		sim.ResetMetrics()
		sim.RunFor(25 * ceio.Millisecond)
		sn := sim.Snapshot()

		// The tail column is the worst flow's P99.9.
		var worstP999 int64
		for _, f := range sim.Machine().Flows {
			if p := f.Latency.P999(); p > worstP999 {
				worstP999 = p
			}
		}
		note := ""
		if arch == ceio.ArchBaseline {
			baseMpps = sn.TotalMpps
		} else if baseMpps > 0 {
			note = fmt.Sprintf("  (%.2fx vs baseline)", sn.TotalMpps/baseMpps)
		}
		fmt.Printf("%-10s %12.2f %12.2f %9.1f%% %12.2f%s\n",
			arch, sn.TotalMpps, sn.TotalGbps, sn.LLCMissRate*100, float64(worstP999)/1e3, note)
	}
}

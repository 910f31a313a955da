// filetransfer drives a LineFS-style distributed-file-system write
// workload: CPU-bypass RDMA flows streaming 16GB-class files in chunks,
// and shows how CEIO's elastic buffering carries the stream while the
// fast/slow path split protects the LLC (the Fig. 9c / Fig. 11 story).
//
//	go run ./examples/filetransfer [-flows 8] [-chunk 1024]
package main

import (
	"flag"
	"fmt"

	"ceio"
)

func main() {
	flows := flag.Int("flows", 8, "parallel writer flows")
	chunk := flag.Int("chunk", 1024, "packets per write chunk (RDMA write-with-immediate batch)")
	flag.Parse()

	const window = 20 * ceio.Millisecond
	for _, arch := range []ceio.Architecture{ceio.ArchBaseline, ceio.ArchCEIO} {
		sim := ceio.NewSimulator(ceio.DefaultConfig(), arch)
		for i := 1; i <= *flows; i++ {
			sim.AddFlow(ceio.FileTransferFlow(i, 1024, *chunk))
		}
		sim.RunFor(5 * ceio.Millisecond)
		sim.ResetMetrics()
		sim.RunFor(window)
		sn := sim.Snapshot()

		// Bytes written per writer, from each flow's delivery meter over
		// the measurement window.
		var total, hi uint64
		lo := ^uint64(0)
		for _, f := range sim.Machine().Flows {
			b := f.Delivered.Bytes
			total += b
			lo, hi = min(lo, b), max(hi, b)
		}
		fmt.Printf("%-8s: %7.2f Gbps aggregate write bandwidth, LLC miss %.1f%%\n",
			arch, sn.BypassGbps, sn.LLCMissRate*100)
		fmt.Printf("          %d packets (%.2f GB) written in %v, %.1f-%.1f MB per writer\n",
			sn.DeliveredPkts, float64(total)/1e9, window, float64(lo)/1e6, float64(hi)/1e6)
		if dp := sim.CEIO(); dp != nil {
			all := dp.FastPackets + dp.SlowPackets
			fmt.Printf("          %.0f%% of packets took the elastic slow path (on-NIC memory), %d CCA marks\n",
				float64(dp.SlowPackets)/float64(all)*100, dp.SlowMarks)
		}
	}
	fmt.Println("\nWith CEIO, large-message bypass flows exhaust their credits (lazy release)")
	fmt.Println("and stream through on-NIC memory, leaving the LLC to latency-sensitive flows.")
}

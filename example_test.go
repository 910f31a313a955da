package ceio_test

import (
	"fmt"

	"ceio"
)

// The basic flow: build a simulator, add flows, run, inspect.
func Example() {
	sim := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchCEIO)
	sim.AddFlow(ceio.KVFlow(1, 144))
	sim.RunFor(2 * ceio.Millisecond)
	sn := sim.Snapshot()
	fmt.Println(sn.Arch, sn.DeliveredPkts > 0, sn.LLCMissRate < 0.05)
	// Output: CEIO true true
}

// Comparing architectures on the same workload.
func ExampleNewSimulator_comparison() {
	for _, arch := range []ceio.Architecture{ceio.ArchBaseline, ceio.ArchCEIO} {
		sim := ceio.NewSimulator(ceio.DefaultConfig(), arch)
		for i := 1; i <= 8; i++ {
			sim.AddFlow(ceio.KVFlow(i, 256))
		}
		sim.RunFor(5 * ceio.Millisecond)
		fmt.Printf("%s: misses=%v\n", arch, sim.Snapshot().LLCMissRate > 0.5)
	}
	// Output:
	// Baseline: misses=true
	// CEIO: misses=false
}

// Observing every delivered packet; observers chain, so several may be
// registered.
func ExampleSimulator_OnDeliver() {
	sim := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchCEIO)
	var seen uint64
	sim.OnDeliver(func(f *ceio.Flow, p *ceio.Packet) { seen++ })
	sim.AddFlow(ceio.KVFlow(1, 144))
	sim.RunFor(1 * ceio.Millisecond)
	fmt.Println(seen > 0, seen == sim.Snapshot().DeliveredPkts)
	// Output: true true
}

// Forcing the slow path reproduces the Fig. 11 micro-benchmark setup.
func ExampleNewCEIOSimulator() {
	opts := ceio.DefaultCEIOOptions()
	opts.ForceSlowPath = true
	sim := ceio.NewCEIOSimulator(ceio.DefaultConfig(), opts)
	sim.AddFlow(ceio.EchoFlow(1, 4096))
	sim.RunFor(2 * ceio.Millisecond)
	dp := sim.CEIO()
	fmt.Println(dp.FastPackets == 0, dp.SlowPackets > 0)
	// Output: true true
}

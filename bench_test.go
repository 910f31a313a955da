// Benchmark harness: one testing.B sub-benchmark per table and figure of
// the paper's evaluation (run via `go test -bench=. -benchmem`), plus
// micro-benchmarks of the core data structures. The macro benchmarks use
// the quick experiment configuration; `cmd/ceio-bench` (without -quick)
// produces the full-length numbers recorded in EXPERIMENTS.md.
package ceio_test

import (
	"math/rand"
	"slices"
	"testing"

	"ceio"
	"ceio/internal/cache"
	"ceio/internal/core"
	"ceio/internal/experiments"
	"ceio/internal/fleet"
	"ceio/internal/pkt"
	"ceio/internal/ring"
	"ceio/internal/runner"
	"ceio/internal/sim"
	"ceio/internal/stats"
	"ceio/internal/workload"
)

// --- Macro benchmarks: one per paper table/figure -----------------------

// BenchmarkExperiments regenerates every paper table and figure, one
// sub-benchmark per experiment name (BenchmarkExperiments/fig9, ...), at
// the quick configuration. The fleet experiment runs on a 4-host rack
// (host 0 killed mid-window, balancer migrates and audits).
func BenchmarkExperiments(b *testing.B) {
	for _, name := range experiments.Names() {
		if name == "all" {
			continue
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := experiments.QuickConfig()
			cfg.FleetHosts = 4
			for i := 0; i < b.N; i++ {
				if tables, _ := experiments.ByName(name, cfg); len(tables) == 0 || len(tables[0].Rows) == 0 {
					b.Fatal("experiment produced no output")
				}
			}
		})
	}
}

// --- Simulator throughput benchmarks ------------------------------------

// BenchmarkSimulatedPacketRate measures how many simulated packets per
// wall-clock second the full CEIO machine sustains (the simulator's own
// performance, not the modelled system's).
func BenchmarkSimulatedPacketRate(b *testing.B) {
	b.ReportAllocs()
	sim := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchCEIO)
	for i := 1; i <= 4; i++ {
		sim.AddFlow(ceio.KVFlow(i, 256))
	}
	before := sim.Snapshot().DeliveredPkts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunFor(100 * ceio.Microsecond)
	}
	b.StopTimer()
	delivered := sim.Snapshot().DeliveredPkts - before
	b.ReportMetric(float64(delivered)/float64(b.N), "pkts/op")
}

// steadyStateArchs are the sub-benchmarks of BenchmarkMachineSteadyState,
// one per architecture.
var steadyStateArchs = slices.Concat(workload.AllMethods, []workload.Method{workload.MethodRDCA})

// BenchmarkMachineSteadyState drives the full machine hot path — emit,
// DMA commit and Landed hook, LLC insert, poll into the core's batch,
// pipelined CPU cost with state touches, bypass consumption, delivery —
// after warm-up, one sub-benchmark per architecture
// (BenchmarkMachineSteadyState/Baseline, ...). The CI -benchmem gate
// asserts every datapath's per-packet path performs no allocation:
// buffer payloads ride in the LLC's recycled arena nodes, DMA and rx
// carriers are pooled, and polls append into the core's reused batch.
func BenchmarkMachineSteadyState(b *testing.B) {
	for _, me := range steadyStateArchs {
		b.Run(string(me), func(b *testing.B) {
			b.ReportAllocs()
			sim := ceio.NewSimulator(ceio.DefaultConfig(), ceio.Architecture(me))
			for i := 1; i <= 4; i++ {
				f := ceio.KVFlow(i, 256)
				f.Pipeline = []string{"nat64", "firewall"}
				sim.AddFlow(f)
			}
			sim.AddFlow(ceio.FileTransferFlow(5, 1024, 64))
			// Pooled free lists, RDCA's per-partition pend FIFOs and the
			// core batch buffers grow for a few ms; warm until the
			// measured region is allocation-free even at short
			// -benchtime counts.
			sim.RunFor(20 * ceio.Millisecond)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.RunFor(10 * ceio.Microsecond)
			}
		})
	}
}

// BenchmarkIdleCores steps Fig. 12's one-core-per-flow layout (Cores ==
// 0) at its idle extreme: a CEIO machine with 1040 established echo
// flows, 1024 of them paused. The 16 active flows together offer a
// sixteenth of the link, so most events are idle cores' back-off poll
// ticks, and the doorbell gate answers most of those. In the fast
// sub-benchmark the paused flows wait on the fast path; in the slow one
// the machine runs the "CEIO slow path" ablation, so they wait on the
// slow path with nothing queued. One op is 10 us of simulated time;
// polls/op and gated/op come from the machine-wide poll counters. The CI
// -benchmem gate asserts 0 allocs/op for both.
func BenchmarkIdleCores(b *testing.B) {
	for _, sub := range idleCoresCases {
		b.Run(sub.name, func(b *testing.B) { benchIdleCores(b, sub.arch) })
	}
}

// idleCoresCases are the sub-benchmarks of BenchmarkIdleCores: the path
// the paused flows wait on, and the architecture that puts them there.
var idleCoresCases = []struct {
	name string
	arch ceio.Architecture
}{
	{"fast", ceio.ArchCEIO},
	{"slow", ceio.Architecture(workload.MethodCEIOSlowPath)},
}

func benchIdleCores(b *testing.B, arch ceio.Architecture) {
	const active, paused = 16, 1024
	b.ReportAllocs()
	cfg := ceio.DefaultConfig()
	s := ceio.NewSimulator(cfg, arch)
	for id := 1; id <= active+paused; id++ {
		f := ceio.EchoFlow(id, 512)
		f.InitialRate = cfg.LinkBandwidth / (16 * active)
		f.FixedRate = true
		s.AddFlow(f)
		if id > active {
			s.PauseFlow(id)
		}
	}
	reg := s.Metrics()
	s.RunFor(5 * ceio.Millisecond)
	polls, gated := reg.Value("iosys.core.polls_total"), reg.Value("iosys.core.gated_polls_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFor(10 * ceio.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric((reg.Value("iosys.core.polls_total")-polls)/float64(b.N), "polls/op")
	b.ReportMetric((reg.Value("iosys.core.gated_polls_total")-gated)/float64(b.N), "gated/op")
}

// BenchmarkFleetEventThroughput measures raw event-dispatch throughput
// (engine events per wall-clock second) on the 16-host rack scenario with
// 3 flows per host — the schedule-heavy macro workload ROADMAP item 1
// names as the scale ceiling. Reported as Mevents/sec so BENCH_engine.json
// can track the heap→wheel trajectory directly.
func BenchmarkFleetEventThroughput(b *testing.B) {
	b.ReportAllocs()
	f, err := fleet.New(fleet.DefaultConfig(16, workload.MethodCEIO))
	if err != nil {
		b.Fatal(err)
	}
	id := 1
	for h := 0; h < 16; h++ {
		f.AddFlow(workload.ERPCKV(id, 144, workload.DPDK))
		id++
		f.AddFlow(workload.ERPCKV(id, 144, workload.DPDK))
		id++
		f.AddFlow(workload.LineFS(id, 1024, 1024))
		id++
	}
	f.RunFor(50 * sim.Microsecond) // warm up flows and ring occupancy
	before := f.EventsProcessed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.RunFor(100 * sim.Microsecond)
	}
	b.StopTimer()
	events := f.EventsProcessed() - before
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/sec")
}

// benchFleet64Sharded steps a 64-host rack (3 flows per host, all
// control traffic over the ToR fabric) with its host shards fanned
// across a pool of the given width. The Serial/Parallel8 pair is the
// BENCH_fleet.json row that tracks the sharded-execution speedup; on a
// single-CPU runner the pair mostly measures barrier overhead, so read
// the delta together with the recorded host CPU count.
func benchFleet64Sharded(b *testing.B, workers int) {
	b.ReportAllocs()
	pool := runner.NewPool(workers)
	defer pool.Close()
	cfg := fleet.DefaultConfig(64, workload.MethodCEIO)
	cfg.Pool = pool
	f, err := fleet.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	id := 1
	for h := 0; h < 64; h++ {
		f.AddFlow(workload.ERPCKV(id, 144, workload.DPDK))
		id++
		f.AddFlow(workload.ERPCKV(id, 144, workload.DPDK))
		id++
		f.AddFlow(workload.LineFS(id, 1024, 1024))
		id++
	}
	f.RunFor(50 * sim.Microsecond)
	before := f.EventsProcessed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.RunFor(100 * sim.Microsecond)
	}
	b.StopTimer()
	events := f.EventsProcessed() - before
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/sec")
}

func BenchmarkFleet64ShardedSerial(b *testing.B)    { benchFleet64Sharded(b, 1) }
func BenchmarkFleet64ShardedParallel8(b *testing.B) { benchFleet64Sharded(b, 8) }

// --- Micro benchmarks of the core data structures ------------------------

func BenchmarkEngineScheduling(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Time(i%64), fn)
		eng.Step()
	}
}

// BenchmarkEngineSchedulingDeep keeps 4096 events pending with horizons
// spread across timing-wheel levels (64ns to 16ms lookahead), the regime
// where the binary heap's O(log n) sift and per-push boxing dominate.
func BenchmarkEngineSchedulingDeep(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	fn := func() {}
	spread := []sim.Time{64, 3 * 1024, 200 * 1024, 16 * 1024 * 1024}
	for i := 0; i < 4096; i++ {
		eng.After(spread[i%len(spread)], fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(spread[i%len(spread)], fn)
		eng.Step()
	}
}

// BenchmarkEngineEveryTickers drives 256 concurrent periodic tickers with
// co-prime periods — the sampler/health-probe shape every machine layer
// hangs off the engine.
func BenchmarkEngineEveryTickers(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < 256; i++ {
		eng.Every(sim.Time(i), sim.Time(97+2*i), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkEngineBackoffTickers is flow-churn's tick shape: 2048 idle
// cores polling at a 6.4 µs backoff period, so every tick files into
// wheel level 1 and reaches level 0 through a cascade.
func BenchmarkEngineBackoffTickers(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < 2048; i++ {
		eng.Every(sim.Time(i*3), 6400, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkLLCInsertConsume(b *testing.B) {
	b.ReportAllocs()
	llc := cache.NewLLC(6 << 20)
	var handles [16]cache.Handle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := cache.BufID(i + 1)
		k := i % len(handles)
		h, _ := llc.InsertIOSized(0, id, 2048, 2048)
		if i >= len(handles) {
			llc.ConsumeIn(0, handles[k], id-cache.BufID(len(handles)))
		}
		handles[k] = h
	}
}

// BenchmarkLLCStateWorkingSet is the LLC shape of a heavy dataplane
// chain (host-nf-chain's four modules): per op, one packet's 2 KB DDIO
// write, the consume of the buffer written 1536 packets earlier, and
// eight 64 B state-line touches drawn uniformly from a ~3.7 MB working
// set, all in one 6 MB region. State and in-flight buffers together
// overflow the region, so touches mix hits with refills that evict, and
// the resident set holds tens of thousands of lines — the lookup cost
// BenchmarkLLCInsertConsume's 16 in-flight buffers cannot show.
func BenchmarkLLCStateWorkingSet(b *testing.B) {
	b.ReportAllocs()
	const (
		stateLines = 3_700_000 / 64
		inFlight   = 1536
	)
	llc := cache.NewLLC(6 << 20)
	rng := rand.New(rand.NewSource(1))
	var handles [inFlight]cache.Handle
	packet := func(i int) {
		k := i % inFlight
		h, _ := llc.InsertIOSized(0, cache.BufID(i+1), 2048, 2048)
		if i >= inFlight {
			llc.ConsumeIn(0, handles[k], cache.BufID(i+1-inFlight))
		}
		handles[k] = h
		for t := 0; t < 8; t++ {
			line := rng.Intn(stateLines)
			llc.TouchState(0, cache.StateLineID(line%4, line/4), 64)
		}
	}
	const warm = 4 * stateLines
	for i := 0; i < warm; i++ {
		packet(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packet(warm + i)
	}
}

// BenchmarkHistogramRecord is the per-delivery latency record: values
// spread over the 1 µs–1 ms delivery-latency range into a histogram that
// has already seen it, as every flow's and machine's histogram has after
// warm-up. The CI -benchmem gate requires 0 allocs/op.
func BenchmarkHistogramRecord(b *testing.B) {
	b.ReportAllocs()
	var h stats.Histogram
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = 1000 + rng.Int63n(999_000)
		h.Record(vals[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i%len(vals)])
	}
}

func BenchmarkHWRingPostPop(b *testing.B) {
	b.ReportAllocs()
	r := ring.NewHWRing(1024)
	p := &pkt.Packet{Size: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Post(p)
		r.Pop()
	}
}

func BenchmarkSWRingMixedPath(b *testing.B) {
	b.ReportAllocs()
	r := ring.NewSWRing(1024)
	p := &pkt.Packet{Size: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			idx, _ := r.PushSlow(p)
			r.MarkReady(idx)
		} else {
			r.PushFast(p)
		}
		r.PopReady()
	}
}

func BenchmarkCreditConsumeRelease(b *testing.B) {
	b.ReportAllocs()
	ctrl := core.NewCreditController(3072)
	accts := ctrl.AddFlows(1, 2, 3, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := accts[i%4]
		if ctrl.Consume(f) {
			ctrl.Release(f, 1)
		}
	}
}

func BenchmarkCreditAlgorithm1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctrl := core.NewCreditController(3072)
		ids := make([]int, 64)
		for j := range ids {
			ids[j] = j + 1
		}
		ctrl.AddFlows(ids...)
		ctrl.AddFlows(1000)
	}
}

func BenchmarkDCTCPFeedback(b *testing.B) {
	b.ReportAllocs()
	m := ceio.NewSimulator(ceio.DefaultConfig(), ceio.ArchBaseline).Machine()
	f := m.AddFlow(workload.ERPCKV(1, 144, workload.DPDK))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CC.OnAck(i%64 == 0)
	}
}

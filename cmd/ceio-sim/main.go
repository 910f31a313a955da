// Command ceio-sim runs a single ad-hoc scenario on the simulated
// NIC-CPU data path and reports aggregate and per-flow metrics.
//
// Usage:
//
//	ceio-sim -arch CEIO -kv 4 -dfs 2 -echo 2 -pkt 256 -dur 20ms
//	ceio-sim -arch CEIO -kv 4 -dfs 2 -pipeline nat64,acl-trie,firewall
//	ceio-sim -config scenario.json [-out json]
//	ceio-sim -arch CEIO -kv 4 -faults examples/scenarios/chaos-storm.json
//	ceio-sim -arch Baseline -kv 2 -dfs 2 -tenants kv=2,bulk=3 -tenants-mode dynamic
//	ceio-sim -kv 2 -dfs 2 -tenants kv=1,bulk=4 -sample-every 1ms \
//	    -metrics-out m.prom -series-out occupancy.csv -timeline-out t.json
//
// Architectures are the names of the workload registry, listed by -h:
// Baseline, HostCC, ShRing, CEIO, RDCA and the two CEIO ablation
// variants. A JSON scenario file
// (see examples/scenarios/) describes flows with start/stop times
// declaratively and can emit machine-readable results. A fault plan
// (-faults) arms deterministic chaos injection; the run prints the
// replay line (plan + seeds) and the invariant-auditor verdict.
//
// Telemetry exports (OBSERVABILITY.md documents the formats and every
// series): -metrics-out writes end-of-run Prometheus text exposition,
// -series-out writes time series sampled every -sample-every of
// simulated time (CSV, or JSONL when the path ends in .jsonl), and
// -timeline-out writes per-packet Chrome trace-event JSON for
// chrome://tracing / Perfetto. All exports are deterministic: sampling
// runs on the simulation clock, never the wall clock.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ceio"
	"ceio/internal/iosys"
	"ceio/internal/runner"
	"ceio/internal/scenario"
	"ceio/internal/sim"
	"ceio/internal/telemetry"
	"ceio/internal/trace"
	"ceio/internal/workload"
)

// timelineRing is the tracer capacity used when -timeline-out implies
// tracing: large enough to hold every packet event of a default-length
// run so the exported timeline has no truncated spans.
const timelineRing = 1 << 20

func main() {
	arch := flag.String("arch", "CEIO", "I/O architecture: "+workload.MethodList())
	kv := flag.Int("kv", 4, "number of eRPC key-value flows (CPU-involved)")
	dfs := flag.Int("dfs", 0, "number of LineFS file-transfer flows (CPU-bypass)")
	echo := flag.Int("echo", 0, "number of echo flows (CPU-involved)")
	pkt := flag.Int("pkt", 0, "packet size in bytes (0 = workload default)")
	dur := flag.Duration("dur", 20*time.Millisecond, "simulated duration")
	warm := flag.Duration("warmup", 5*time.Millisecond, "warm-up excluded from metrics")
	seed := flag.Int64("seed", 1, "simulation seed")
	cores := flag.Int("cores", 0, "CPU cores behind an RSS dispatch stage (0 = legacy one core per flow)")
	hosts := flag.Int("hosts", 0, "run a rack of N hosts behind the failover balancer instead of one machine (0 = single machine; flow counts become per-host)")
	killAt := flag.Duration("kill-at", 0, "with -hosts: crash host 0 at this simulated time for a quarter of -dur (0 = no kill)")
	parallel := flag.Int("parallel", 1, "with -hosts: worker pool width for stepping host shards (1 = serial; output is byte-identical at any width)")
	fabricGbps := flag.Float64("fabric-gbps", 0, "with -hosts: ToR per-port line rate in Gbps (0 = 100)")
	fabricBuf := flag.Int("fabric-buf", 0, "with -hosts: shared ToR switch buffer in bytes (0 = 2 MiB)")
	traceN := flag.Int("trace", 0, "dump the last N per-packet datapath events")
	config := flag.String("config", "", "run a JSON scenario file instead of flag-built flows")
	out := flag.String("out", "text", "output format for -config runs: text | json")
	faultsPath := flag.String("faults", "", "JSON fault plan: arm deterministic chaos injection + invariant auditing")
	pipeline := flag.String("pipeline", "", "comma-separated dataplane module chain applied to kv/echo flows, e.g. \"nat64,acl-trie,firewall\" (see DESIGN.md)")
	tenants := flag.String("tenants", "", "partition the DDIO LLC per tenant, e.g. \"kv=2,bulk=3\" (kv/echo flows -> first tenant, dfs -> second)")
	tenantsMode := flag.String("tenants-mode", "dynamic", "tenant partition management: shared | static | dynamic")
	sampleEvery := flag.Duration("sample-every", 0, "simulated sampling interval for -series-out (0 = no sampling)")
	metricsOut := flag.String("metrics-out", "", "write end-of-run metrics as Prometheus text exposition to this file")
	seriesOut := flag.String("series-out", "", "write sampled time series to this file (CSV, or JSONL if it ends in .jsonl; needs -sample-every)")
	timelineOut := flag.String("timeline-out", "", "write per-packet Chrome trace-event JSON to this file (implies tracing)")
	flag.Parse()

	if *seriesOut != "" && *sampleEvery <= 0 {
		fmt.Fprintln(os.Stderr, "ceio-sim: -series-out needs -sample-every > 0")
		os.Exit(2)
	}
	exp := exporter{
		sampleEvery: sim.Time(sampleEvery.Nanoseconds()),
		metricsOut:  *metricsOut,
		seriesOut:   *seriesOut,
		timelineOut: *timelineOut,
	}

	if *config != "" {
		if *faultsPath != "" {
			fmt.Fprintln(os.Stderr, "ceio-sim: -faults applies to flag-built runs, not -config scenarios")
			os.Exit(2)
		}
		runConfig(*config, *out, &exp)
		return
	}

	if _, err := workload.ParseMethod(*arch); err != nil {
		fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
		os.Exit(2)
	}
	if *hosts < 0 {
		fmt.Fprintf(os.Stderr, "ceio-sim: -hosts must be >= 0, got %d\n", *hosts)
		os.Exit(2)
	}
	if *hosts > 0 {
		if *faultsPath != "" || *tenants != "" {
			fmt.Fprintln(os.Stderr, "ceio-sim: -hosts composes with -kill-at, not -faults or -tenants")
			os.Exit(2)
		}
		runFleet(*hosts, *arch, *kv, *dfs, *echo, *pkt, *dur, *warm, *killAt, *seed, *cores, *parallel, *fabricGbps, *fabricBuf, &exp)
		return
	}
	cfg := ceio.DefaultConfig()
	cfg.Seed = *seed
	cfg.Cores = *cores
	var chain []string
	if *pipeline != "" {
		chain = strings.Split(*pipeline, ",")
		for i := range chain {
			chain[i] = strings.TrimSpace(chain[i])
		}
		if err := ceio.ValidatePipeline(chain); err != nil {
			fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
			os.Exit(2)
		}
	}
	// Tenant tags for flag-built flows: CPU-involved flows (kv, echo) land
	// in the first declared tenant, file transfers (dfs) in the second.
	var involvedTenant, bypassTenant string
	if *tenants != "" {
		specs, err := ceio.ParseTenantSpecs(*tenants)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
			os.Exit(2)
		}
		mode, err := ceio.ParseTenantMode(*tenantsMode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
			os.Exit(2)
		}
		cfg.Tenancy = &ceio.TenancyConfig{Mode: mode, Specs: specs}
		involvedTenant = specs[0].ID
		bypassTenant = specs[0].ID
		if len(specs) > 1 {
			bypassTenant = specs[1].ID
		}
	}
	sim, err := ceio.NewSimulatorE(cfg, ceio.Architecture(*arch))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
		os.Exit(2)
	}
	var tracer *ceio.Tracer
	if *traceN > 0 {
		tracer = sim.EnableTracing(*traceN)
	} else if exp.timelineOut != "" {
		tracer = sim.EnableTracing(timelineRing)
	}
	var injector *ceio.FaultInjector
	var auditor *ceio.Auditor
	if *faultsPath != "" {
		injector, auditor = armFaults(sim, *faultsPath)
	}

	id := 1
	for i := 0; i < *kv; i++ {
		s := ceio.KVFlow(id, *pkt)
		s.Tenant = involvedTenant
		s.Pipeline = chain
		sim.AddFlow(s)
		id++
	}
	for i := 0; i < *dfs; i++ {
		s := ceio.FileTransferFlow(id, *pkt, 0)
		s.Tenant = bypassTenant
		sim.AddFlow(s)
		id++
	}
	for i := 0; i < *echo; i++ {
		size := *pkt
		if size == 0 {
			size = 512
		}
		s := ceio.EchoFlow(id, size)
		s.Tenant = involvedTenant
		s.Pipeline = chain
		sim.AddFlow(s)
		id++
	}
	if id == 1 {
		fmt.Fprintln(os.Stderr, "ceio-sim: no flows requested")
		os.Exit(2)
	}

	var sampler *ceio.MetricsSampler
	if exp.sampleEvery > 0 {
		sampler = sim.StartSampling(exp.sampleEvery)
	}
	sim.RunFor(ceio.Duration(warm.Nanoseconds()))
	sim.ResetMetrics()
	sim.RunFor(ceio.Duration(dur.Nanoseconds()))

	ceio.WriteReport(os.Stdout, sim)
	if injector != nil {
		reportFaults(sim, injector, auditor, *seed)
	}
	if tracer != nil && *traceN > 0 {
		fmt.Printf("\n-- last %d datapath events --\n", *traceN)
		tracer.Dump(os.Stdout)
	}
	exp.export(sim.Metrics(), sampler, sim.Machine().Tracer)
}

// runFleet drives the rack mode: N hosts behind the failover balancer,
// each stepping its own engine shard (fanned across -parallel pool
// workers in lockstep epochs), all control traffic crossing the modelled
// ToR switch, the flag-built flow mix replicated per host of capacity,
// and — when -kill-at is set — a one-shot host-crash episode on host 0
// lasting a quarter of -dur. The run prints the rack report and the
// combined per-host + fleet invariant-auditor verdict; output is
// byte-identical at any -parallel width.
func runFleet(hosts int, arch string, kv, dfs, echo, pktSize int, dur, warm, killAt time.Duration, seed int64, cores, parallel int, fabricGbps float64, fabricBuf int, exp *exporter) {
	fc := ceio.DefaultFleetConfig(hosts, ceio.Architecture(arch))
	fc.Machine.Seed = seed
	fc.Machine.Cores = cores
	pool := runner.NewPool(parallel)
	defer pool.Close()
	fc.Pool = pool
	if fabricGbps > 0 {
		fc.Fabric.GbpsPerPort = fabricGbps
	}
	if fabricBuf > 0 {
		fc.Fabric.BufBytes = fabricBuf
	}
	if killAt > 0 {
		fc.Plans = []ceio.FaultPlan{{
			HostCrash: ceio.OneShotFault(ceio.Duration(killAt.Nanoseconds()), ceio.Duration(dur.Nanoseconds()/4)),
		}}
	}
	f, err := ceio.NewFleetE(fc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
		os.Exit(2)
	}
	id := 1
	for h := 0; h < hosts; h++ {
		for i := 0; i < kv; i++ {
			f.AddFlow(ceio.KVFlow(id, pktSize))
			id++
		}
		for i := 0; i < dfs; i++ {
			f.AddFlow(ceio.FileTransferFlow(id, pktSize, 0))
			id++
		}
		for i := 0; i < echo; i++ {
			size := pktSize
			if size == 0 {
				size = 512
			}
			f.AddFlow(ceio.EchoFlow(id, size))
			id++
		}
	}
	if id == 1 {
		fmt.Fprintln(os.Stderr, "ceio-sim: no flows requested")
		os.Exit(2)
	}
	audit := f.AttachAuditors(0)
	f.RunFor(ceio.Duration(warm.Nanoseconds()))
	f.ResetWindow()
	f.RunFor(ceio.Duration(dur.Nanoseconds()))
	f.WriteReport(os.Stdout)
	audit.Final()
	if err := audit.Err(); err != nil {
		fmt.Printf("  AUDIT FAILED:\n%v\n", err)
	} else {
		fmt.Printf("  audit: clean (%d fleet sweeps, 0 violations)\n", audit.Fleet.Checks)
	}
	if exp.metricsOut != "" {
		writeFile(exp.metricsOut, func(w io.Writer) error { return telemetry.WritePrometheus(w, f.Reg) })
	}
}

// exporter writes the telemetry artifacts a run asked for.
type exporter struct {
	sampleEvery sim.Time
	metricsOut  string
	seriesOut   string
	timelineOut string
}

// export writes the requested files; any nil source with its flag unset
// is simply skipped.
func (e *exporter) export(reg *telemetry.Registry, sampler *telemetry.Sampler, tr *trace.Tracer) {
	if e.metricsOut != "" && reg != nil {
		writeFile(e.metricsOut, func(w io.Writer) error { return telemetry.WritePrometheus(w, reg) })
	}
	if e.seriesOut != "" && sampler != nil {
		writeFile(e.seriesOut, func(w io.Writer) error {
			if strings.HasSuffix(e.seriesOut, ".jsonl") {
				return sampler.WriteJSONL(w)
			}
			return sampler.WriteCSV(w)
		})
	}
	if e.timelineOut != "" && tr != nil {
		writeFile(e.timelineOut, func(w io.Writer) error { return telemetry.WriteChromeTrace(w, tr.Events()) })
	}
}

// writeFile creates path and streams fn into it, exiting on error.
func writeFile(path string, fn func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
		os.Exit(1)
	}
	if err := fn(f); err == nil {
		err = f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
			os.Exit(1)
		}
	} else {
		f.Close()
		fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
		os.Exit(1)
	}
}

// armFaults loads a fault plan and arms injection plus the invariant
// auditor before any traffic runs.
func armFaults(sim *ceio.Simulator, path string) (*ceio.FaultInjector, *ceio.Auditor) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	plan, err := ceio.LoadFaultPlan(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
		os.Exit(1)
	}
	ij, err := sim.InjectFaults(plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
		os.Exit(1)
	}
	return ij, sim.AttachAuditor(0)
}

// reportFaults prints the chaos summary: the replay line that reproduces
// the run byte for byte, the injected-fault and self-healing counters,
// and the invariant-auditor verdict.
func reportFaults(sim *ceio.Simulator, ij *ceio.FaultInjector, auditor *ceio.Auditor, seed int64) {
	fmt.Printf("  replay: -seed %d -faults '%s'\n", seed, ij.Plan())
	fmt.Printf("  faults injected: %s\n", ij.Stats)
	m := sim.Machine()
	fmt.Printf("  wire losses seen by NIC: drops=%d corrupts=%d\n", m.FaultDrops, m.FaultCorrupts)
	if dp := sim.CEIO(); dp != nil {
		fmt.Printf("  self-healing: reclaimed=%d (loss-events=%d) read-retries=%d steer-retries=%d fallbacks=%d stale-hits=%d pressure-marks=%d degraded-flows=%d\n",
			dp.CreditsReclaimed, dp.CreditLossEvents, dp.ReadRetries,
			dp.SteerRetries, dp.SteerFallbacks, dp.StaleSteerHits, dp.PressureMarks, dp.Degraded())
	}
	auditor.Final()
	if err := auditor.Err(); err != nil {
		fmt.Printf("  AUDIT FAILED:\n%v\n", err)
		return
	}
	fmt.Printf("  audit: clean (%d sweeps, 0 violations)\n", auditor.Checks)
}

// runConfig executes a declarative JSON scenario, attaching telemetry
// instrumentation when export flags ask for it.
func runConfig(path, out string, exp *exporter) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	spec, err := scenario.Load(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
		os.Exit(1)
	}
	var (
		machine *iosys.Machine
		sampler *telemetry.Sampler
	)
	res, err := spec.RunInstrumented(func(m *iosys.Machine) {
		machine = m
		if exp.sampleEvery > 0 {
			sampler = telemetry.NewSampler(m.Eng, m.Reg, exp.sampleEvery, nil)
		}
		if exp.timelineOut != "" {
			m.Tracer = trace.New(timelineRing)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ceio-sim: %v\n", err)
		os.Exit(1)
	}
	if out == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res) //nolint:errcheck // stdout
	} else {
		res.WriteText(os.Stdout)
	}
	exp.export(machine.Reg, sampler, machine.Tracer)
}

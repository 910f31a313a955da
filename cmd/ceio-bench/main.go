// Command ceio-bench regenerates the tables and figures of the CEIO
// paper's evaluation on the simulated substrate.
//
// Usage:
//
//	ceio-bench [-quick] [-parallel N] [-seeds N] [experiment ...]
//	ceio-bench -list
//	ceio-bench -quick -sample-every 1ms -timeline-out tenants.csv tenants
//	ceio-bench -quick -sample-every 250us -timeline-out fig10.csv fig10
//	ceio-bench -http :8080 -metrics-out bench.prom
//	ceio-bench -quick -faults examples/scenarios/chaos-storm.json fig9
//	ceio-bench -quick -hosts 4 -kill-at 5ms fleet
//
// With no arguments it runs every experiment ("all"). Experiment names
// follow the paper (fig9, table2, ...); -list prints them all, in paper
// order; all names are checked before any runs. stdout holds only the
// tables, a pure function of flags and seed; wall-clock stamps go to stderr.
//
// -faults arms a deterministic fault plan on every machine the
// experiments build; -hosts and -kill-at narrow the fleet experiment's
// rack sweep and kill schedule.
//
// Every simulation run is an independent single-threaded engine, so
// -parallel N fans runs (sweep points, whole experiments, and -seeds
// replicas) across N workers while the rendered tables stay
// byte-identical to a -parallel 1 run at the same seed.
//
// Telemetry: -sample-every attaches a simulated-time sampler to the
// cells of the tenants and dynamic-scenario (fig4, fig10) experiments
// and appends one timeline table per cell: per-tenant occupancy, ways
// and miss ratio for tenants; involved Mpps, total Gbps and LLC miss
// rate per interval for fig4/fig10, with _min/_max band columns under
// -seeds N. -timeline-out diverts those tables to a CSV file for
// plotting. -http serves the bench process's
// own progress registry at /metrics plus net/http/pprof profiles at
// /debug/pprof while experiments run; -metrics-out writes that registry
// as Prometheus text exposition at exit. OBSERVABILITY.md documents
// every series.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -http serves CPU/heap profiles at /debug/pprof
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"ceio/internal/dataplane"
	"ceio/internal/experiments"
	"ceio/internal/faults"
	"ceio/internal/runner"
	"ceio/internal/sim"
	"ceio/internal/telemetry"
	"ceio/internal/tenant"
)

// benchProgress counts completed work; the /metrics endpoint and
// -metrics-out read it through the bench process's telemetry registry.
type benchProgress struct {
	experiments atomic.Uint64
	tables      atomic.Uint64
	rows        atomic.Uint64
}

// registry builds the bench-process registry. Unlike the per-run
// simulation registries (one per machine, exported by ceio-sim), these
// series describe the bench process itself and advance on wall-clock
// progress, so they are live-scrapable while experiments run.
func (p *benchProgress) registry(workers int) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.Counter("bench.experiments_total", "Experiments completed by this bench process.", p.experiments.Load)
	reg.Counter("bench.tables_total", "Result tables rendered.", p.tables.Load)
	reg.Counter("bench.rows_total", "Result table rows rendered.", p.rows.Load)
	reg.Gauge("bench.pool.workers_count", "Worker pool size for independent simulation runs.",
		func() float64 { return float64(workers) })
	return reg
}

func main() {
	quick := flag.Bool("quick", false, "shrink sweeps and measurement windows (~10x faster)")
	list := flag.Bool("list", false, "list experiment names and exit")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := flag.Int64("seed", 1, "simulation seed")
	cores := flag.Int("cores", 0, "base machine CPU cores behind an RSS dispatch stage (0 = one core per CPU-involved flow; the cores experiment sweeps its own counts)")
	parallel := flag.Int("parallel", runner.DefaultWorkers(), "worker pool size for independent runs (1 = serial)")
	seeds := flag.Int("seeds", 1, "seed replicas per measurement: scalars report min/mean/max, latency histograms merge")
	faultsPath := flag.String("faults", "", "JSON fault plan armed on every experiment machine: measure the tables under deterministic chaos")
	hosts := flag.Int("hosts", 0, "restrict the fleet experiment to one rack size instead of the 4-64 sweep")
	killAt := flag.Duration("kill-at", 0, "override the fleet experiment's host-0 crash time (simulated, absolute; 0 = a quarter into the window)")
	fabricGbps := flag.Float64("fabric-gbps", 0, "override the fleet experiment's ToR per-port line rate in Gbps (0 = 100)")
	fabricBuf := flag.Int("fabric-buf", 0, "override the fleet experiment's shared ToR switch buffer in bytes (0 = 2 MiB)")
	pipeline := flag.String("pipeline", "", "restrict the pipelines experiment to one module composition, e.g. \"nat64,acl-trie,firewall\"")
	rdcaWindow := flag.Int("rdca-window", 0, "restrict the rdca experiment's fixed-window sweep to one width in I/O buffers (0 = built-in sweep)")
	tenantLayout := flag.String("tenants", "", "override the tenants experiment's starting way allocation, e.g. \"kv=2,bulk=3\"")
	sampleEvery := flag.Duration("sample-every", 0, "simulated sampling interval for the timeline tables of tenants, fig4 and fig10 (0 = off)")
	timelineOut := flag.String("timeline-out", "", "write timeline tables as CSV to this file instead of stdout (needs -sample-every)")
	metricsOut := flag.String("metrics-out", "", "write the bench-process progress registry as Prometheus text exposition at exit")
	httpAddr := flag.String("http", "", "serve /metrics and /debug/pprof on this address (e.g. :8080) while experiments run")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ceio-bench [-quick] [-seed N] [-parallel N] [-seeds N] [experiment ...]\nexperiments: %s\n",
			strings.Join(experiments.Names(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	if *timelineOut != "" && *sampleEvery <= 0 {
		fmt.Fprintln(os.Stderr, "ceio-bench: -timeline-out needs -sample-every > 0")
		os.Exit(2)
	}
	cfg := experiments.Default()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Machine.Seed = *seed
	cfg.Machine.Cores = *cores
	cfg.Seeds = *seeds
	cfg.SampleEvery = sim.Time(sampleEvery.Nanoseconds())
	if *hosts < 0 {
		fmt.Fprintf(os.Stderr, "ceio-bench: -hosts must be >= 0, got %d\n", *hosts)
		os.Exit(2)
	}
	cfg.FleetHosts = *hosts
	cfg.FleetKillAt = sim.Time(killAt.Nanoseconds())
	cfg.FabricGbps = *fabricGbps
	cfg.FabricBuf = *fabricBuf
	if *rdcaWindow < 0 {
		fmt.Fprintf(os.Stderr, "ceio-bench: -rdca-window must be >= 0, got %d\n", *rdcaWindow)
		os.Exit(2)
	}
	cfg.RDCAWindow = *rdcaWindow
	if *faultsPath != "" {
		f, err := os.Open(*faultsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ceio-bench: %v\n", err)
			os.Exit(2)
		}
		plan, err := faults.LoadPlan(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ceio-bench: %v\n", err)
			os.Exit(2)
		}
		// Every machine an experiment builds inherits the plan through
		// Machine.FaultPlan, so the rendered tables measure the paper's
		// comparisons under the same deterministic chaos.
		cfg.Machine.FaultPlan = &plan
	}
	if *pipeline != "" {
		chain := strings.Split(*pipeline, ",")
		for i := range chain {
			chain[i] = strings.TrimSpace(chain[i])
		}
		if err := dataplane.ValidateChain(chain); err != nil {
			fmt.Fprintf(os.Stderr, "ceio-bench: %v (modules: %s)\n", err, strings.Join(dataplane.Names(), ", "))
			os.Exit(2)
		}
		cfg.Pipeline = chain
	}
	if *tenantLayout != "" {
		specs, err := tenant.ParseSpecs(*tenantLayout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ceio-bench: %v\n", err)
			os.Exit(2)
		}
		cfg.TenantLayout = specs
	}
	pool := runner.NewPool(*parallel)
	defer pool.Close()
	cfg.Pool = pool

	var progress benchProgress
	reg := progress.registry(*parallel)
	if *httpAddr != "" {
		serveHTTP(*httpAddr, reg)
	}

	var timeline *os.File
	if *timelineOut != "" {
		f, err := os.Create(*timelineOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ceio-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		timeline = f
	}

	names := flag.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	for _, name := range names {
		if !slices.Contains(experiments.Names(), name) && name != "fig4a" && name != "fig4b" {
			fmt.Fprintf(os.Stderr, "ceio-bench: unknown experiment %q (try -list)\n", name)
			os.Exit(2)
		}
	}
	for _, name := range names {
		start := time.Now()
		tables, _ := experiments.ByName(name, cfg)
		for _, tb := range tables {
			progress.tables.Add(1)
			progress.rows.Add(uint64(len(tb.Rows)))
			switch {
			case timeline != nil && strings.HasPrefix(tb.Title, "Timeline — "):
				if err := tb.RenderCSV(timeline); err != nil {
					fmt.Fprintf(os.Stderr, "ceio-bench: %v\n", err)
					os.Exit(1)
				}
			case *csvOut:
				if err := tb.RenderCSV(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "ceio-bench: %v\n", err)
					os.Exit(1)
				}
			default:
				tb.Render(os.Stdout)
			}
		}
		progress.experiments.Add(1)
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ceio-bench: %v\n", err)
			os.Exit(1)
		}
		if err := telemetry.WritePrometheus(f, reg); err == nil {
			err = f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "ceio-bench: %v\n", err)
				os.Exit(1)
			}
		} else {
			f.Close()
			fmt.Fprintf(os.Stderr, "ceio-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// serveHTTP starts the live observability endpoint: the bench registry
// at /metrics and the stdlib pprof handlers (imported for side effect on
// http.DefaultServeMux) at /debug/pprof.
func serveHTTP(addr string, reg *telemetry.Registry) {
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		telemetry.WritePrometheus(w, reg) //nolint:errcheck // best-effort scrape
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ceio-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ceio-bench: serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
	go http.Serve(ln, nil) //nolint:errcheck // closes when the process exits
}

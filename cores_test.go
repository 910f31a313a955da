package ceio_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ceio"
)

// stripCoreLines drops the per-core report lines ("  core N  ...") that
// only exist on multi-queue machines, leaving the output a Cores=0
// machine would produce.
func stripCoreLines(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "  core ") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// runReport runs n KV flows (plus one file transfer when bypass is
// set) and returns the full report plus the counters that would expose
// any event-level divergence. On a multi-queue machine KV flow i is
// pinned to queue i; the file transfer is RSS-hashed.
func runReport(t *testing.T, arch ceio.Architecture, cores, n int, bypass bool) (report string, events, delivered uint64) {
	t.Helper()
	cfg := ceio.DefaultConfig()
	cfg.Cores = cores
	s, err := ceio.NewSimulatorE(cfg, arch)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= n; id++ {
		spec := ceio.KVFlow(id, 144)
		if cores > 0 {
			spec.Queue = id
		}
		s.AddFlow(spec)
	}
	if bypass {
		s.AddFlow(ceio.FileTransferFlow(n+1, 1024, 64))
	}
	s.RunFor(5 * ceio.Millisecond)
	var sb strings.Builder
	ceio.WriteReport(&sb, s)
	reg := s.Metrics()
	return sb.String(), uint64(reg.Value("sim.events_total")), uint64(reg.Value("iosys.delivered_total"))
}

// TestPinnedQueuesMatchPerFlowCores is the layout-equivalence test: a
// Cores=N machine with KV flow i pinned to queue i must be event-for-event
// identical to the Cores=0 machine that gives each flow a core of its
// own — same event count, same deliveries, and a byte-identical report
// once the per-core lines (which Cores=0 machines don't print) are
// stripped. It holds for every architecture at N ∈ {1, 4}, and with an
// extra CPU-bypass flow for every architecture but CEIO, whose per-core
// credit carve counts the RSS-hashed bypass flow on a multi-queue
// machine.
func TestPinnedQueuesMatchPerFlowCores(t *testing.T) {
	archs := []ceio.Architecture{ceio.ArchBaseline, ceio.ArchHostCC, ceio.ArchShRing, ceio.ArchCEIO, ceio.ArchRDCA}
	for _, arch := range archs {
		for _, n := range []int{1, 4} {
			for _, bypass := range []bool{false, true} {
				if bypass && arch == ceio.ArchCEIO {
					continue
				}
				perFlowRep, perFlowEvents, perFlowDelivered := runReport(t, arch, 0, n, bypass)
				pinnedRep, pinnedEvents, pinnedDelivered := runReport(t, arch, n, n, bypass)
				name := fmt.Sprintf("%s n=%d bypass=%v", arch, n, bypass)
				if pinnedEvents != perFlowEvents {
					t.Errorf("%s: Cores=%d executed %d events, Cores=0 %d", name, n, pinnedEvents, perFlowEvents)
				}
				if pinnedDelivered != perFlowDelivered {
					t.Errorf("%s: Cores=%d delivered %d, Cores=0 %d", name, n, pinnedDelivered, perFlowDelivered)
				}
				if got := stripCoreLines(pinnedRep); got != perFlowRep {
					t.Errorf("%s: Cores=%d report diverges from Cores=0:\n--- Cores=0 ---\n%s\n--- Cores=%d (stripped) ---\n%s", name, n, perFlowRep, n, got)
				}
			}
		}
	}
}

// TestQueueOrderPreserved is the RSS ordering property: whatever the
// queue count and flow mix, a CPU-involved flow's packets are delivered
// in strictly increasing sequence order, because a flow hashes onto
// exactly one queue, each queue core drains FIFO batches, and CEIO's SW
// ring keeps fast- and slow-path packets in arrival order. CPU-bypass
// flows are exercised for pressure but not asserted on: their drained
// slow-path reads commit out of order under credit pressure on the
// Cores == 0 machine too (RDMA write semantics carry no ordering
// ring), so that is a model property, not a multi-queue regression. The
// flow sets come from a fixed-seed RNG so failures reproduce.
func TestQueueOrderPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for cores := 1; cores <= 8; cores++ {
		cfg := ceio.DefaultConfig()
		cfg.Cores = cores
		s := ceio.NewSimulator(cfg, ceio.ArchCEIO)
		nflows := 1 + rng.Intn(12)
		for id := 1; id <= nflows; id++ {
			var spec ceio.FlowSpec
			switch rng.Intn(3) {
			case 0:
				spec = ceio.KVFlow(id, 144)
			case 1:
				spec = ceio.EchoFlow(id, 512)
			default:
				spec = ceio.FileTransferFlow(id, 1024, 64)
			}
			if id == 1 {
				spec = ceio.KVFlow(id, 144) // always at least one ordered flow
			}
			if rng.Intn(2) == 0 { // half pinned, half RSS-hashed
				spec.Queue = 1 + rng.Intn(cores)
			}
			s.AddFlow(spec)
		}
		lastSeq := map[int]uint64{}
		involved := 0
		s.OnDeliver(func(f *ceio.Flow, p *ceio.Packet) {
			if f.Kind != ceio.CPUInvolved {
				return
			}
			if last, ok := lastSeq[p.FlowID]; ok && p.Seq <= last {
				t.Fatalf("cores=%d flow %d: seq %d delivered after %d", cores, p.FlowID, p.Seq, last)
			}
			lastSeq[p.FlowID] = p.Seq
			involved++
		})
		s.RunFor(2 * ceio.Millisecond)
		if involved == 0 {
			t.Fatalf("cores=%d: no CPU-involved deliveries observed", cores)
		}
	}
}

// TestPerCoreShareSumEqualsTotal is the credit-conservation property for
// the per-core carve: at every scan interval, the per-core shares must
// sum exactly to C_total — reallocation moves budget between cores but
// never mints or destroys it — while admission keeps every core's
// in-use credits inside its share's neighbourhood.
func TestPerCoreShareSumEqualsTotal(t *testing.T) {
	cfg := ceio.DefaultConfig()
	cfg.Cores = 4
	s := ceio.NewSimulator(cfg, ceio.ArchCEIO)
	d := s.CEIO()
	if d == nil {
		t.Fatal("CEIO datapath not attached")
	}
	rng := rand.New(rand.NewSource(11))
	for id := 1; id <= 10; id++ {
		spec := ceio.KVFlow(id, 144)
		spec.Queue = 1 + rng.Intn(cfg.Cores)
		s.AddFlow(spec)
	}
	total := d.Controller().Total()
	checks := 0
	for tick := ceio.Duration(0); tick < 5*ceio.Millisecond; tick += 100 * ceio.Microsecond {
		s.At(tick, func() {
			shares := d.CoreShares()
			if len(shares) != cfg.Cores {
				t.Fatalf("CoreShares has %d entries, want %d", len(shares), cfg.Cores)
			}
			sum := 0
			for _, sh := range shares {
				if sh < 0 {
					t.Fatalf("negative core share %v", shares)
				}
				sum += sh
			}
			if sum != total {
				t.Fatalf("at %v: core shares %v sum to %d, want C_total=%d", s.Now(), shares, sum, total)
			}
			checks++
		})
	}
	// Churn while checking: drop and re-add flows so the scan recarves.
	s.At(2*ceio.Millisecond, func() { s.RemoveFlow(1); s.RemoveFlow(2) })
	s.At(3*ceio.Millisecond, func() {
		spec := ceio.KVFlow(11, 144)
		spec.Queue = 2
		s.AddFlow(spec)
	})
	s.RunFor(5 * ceio.Millisecond)
	if checks < 40 {
		t.Fatalf("only %d share checks ran", checks)
	}
	if fmt.Sprint(d.CoreShares()) == fmt.Sprint(make([]int, cfg.Cores)) {
		t.Fatal("core shares never left zero")
	}
}

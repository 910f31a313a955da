package experiments

import (
	"strconv"
	"strings"
	"testing"

	"ceio/internal/workload"
)

// parse "12.34 (1.50x)" or "12.34" -> 12.34
func val(cell string) float64 {
	fields := strings.Fields(cell)
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

func pctVal(cell string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	return v
}

func TestFig9Shape(t *testing.T) {
	cfg := QuickConfig()
	// One representative cell comparison instead of the full sweep;
	// fig9Cols reads Mpps then the LLC miss ratio.
	base := runStatic(cfg, StackERPCDPDK, workload.MethodBaseline, 256)
	ceio := runStatic(cfg, StackERPCDPDK, workload.MethodCEIO, 256)
	baseMpps, baseMiss, ceioMpps, ceioMiss := base.v[0], base.v[1], ceio.v[0], ceio.v[1]
	t.Logf("base: %.2f Mpps miss=%.2f; ceio: %.2f Mpps miss=%.2f", baseMpps, baseMiss, ceioMpps, ceioMiss)
	if ceioMpps <= baseMpps {
		t.Errorf("CEIO should out-throughput baseline: %.2f vs %.2f", ceioMpps, baseMpps)
	}
	if ceioMiss > 0.05 || baseMiss < 0.5 {
		t.Errorf("miss rates off: base %.2f ceio %.2f", baseMiss, ceioMiss)
	}
}

func TestFig11Shape(t *testing.T) {
	cfg := QuickConfig()
	tb := Fig11(cfg)
	if len(tb.Rows) < 2 {
		t.Fatal("missing rows")
	}
	for _, row := range tb.Rows {
		raw, fast, slow := val(row[1]), val(row[2]), val(row[3])
		if fast < raw*0.85 {
			t.Errorf("%s: fast path %.2f should track ib_write_bw %.2f", row[0], fast, raw)
		}
		if slow > fast*1.02 {
			t.Errorf("%s: slow path %.2f cannot beat fast %.2f", row[0], slow, fast)
		}
	}
	// Slow path approaches fast path for large messages.
	last := tb.Rows[len(tb.Rows)-1]
	if val(last[3]) < val(last[2])*0.7 {
		t.Errorf("large-message slow path %.2f should be within ~30%% of fast %.2f", val(last[3]), val(last[2]))
	}
}

func TestTable3Shape(t *testing.T) {
	cfg := QuickConfig()
	tb := Table3(cfg)
	for _, row := range tb.Rows {
		raw, fast, slow := val(row[1]), val(row[2]), val(row[3])
		if !(raw < fast && fast < slow) {
			t.Errorf("%s: want raw < fast < slow, got %.2f %.2f %.2f", row[0], raw, fast, slow)
		}
		if fast/raw > 2.0 {
			t.Errorf("%s: fast-path latency overhead %.2fx too large", row[0], fast/raw)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	cfg := QuickConfig()
	tb := Table4(cfg)
	for _, row := range tb.Rows {
		base, noopt, full := val(row[1]), val(row[2]), val(row[3])
		if full <= base {
			t.Errorf("ratio %s: CEIO %.2f should beat baseline %.2f", row[0], full, base)
		}
		if full < noopt*0.98 {
			t.Errorf("ratio %s: full CEIO %.2f should be >= no-opt %.2f", row[0], full, noopt)
		}
	}
}

func TestLimitsShape(t *testing.T) {
	cfg := QuickConfig()
	tables := Limits(cfg)
	low := tables[0]
	var mpps []float64
	for _, row := range low.Rows {
		mpps = append(mpps, val(row[1]))
		if miss := pctVal(row[2]); miss > 5 {
			t.Errorf("low-pressure %s miss = %.1f%%, want <5%%", row[0], miss)
		}
	}
	// All methods within ~15% of each other.
	lo, hi := mpps[0], mpps[0]
	for _, v := range mpps {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > lo*1.25 {
		t.Errorf("low-pressure methods should be similar: min %.2f max %.2f", lo, hi)
	}
	jumbo := tables[1]
	last := jumbo.Rows[len(jumbo.Rows)-1]
	if lr := pctVal(strings.TrimSuffix(last[2], "%") + "%"); lr < 85 {
		t.Errorf("9000B baseline should approach line rate, got %s", last[2])
	}
}

func TestFig12Shape(t *testing.T) {
	cfg := QuickConfig()
	tb := Fig12(cfg)
	if len(tb.Rows) < 3 {
		t.Fatal("rows missing")
	}
	// With few flows, all slot durations perform well and similarly; at
	// the largest count, the fastest rotation must not exceed the slowest.
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if val(first[1]) <= 0 {
		t.Fatal("no throughput at 16 flows")
	}
	if val(last[1]) > val(last[3])*1.3 {
		t.Errorf("fast rotation at high flow count should not beat slow rotation: %s vs %s", last[1], last[3])
	}
}

// TestByNameAndRender checks the registry's lookup surface: both fig4
// aliases resolve, an unknown name fails, and Names() ends in "all".
// TestParallelOutputByteIdentical renders every other name and "all".
func TestByNameAndRender(t *testing.T) {
	cfg := microCfg()
	if _, ok := ByName("nope", cfg); ok {
		t.Fatal("unknown name should fail")
	}
	for _, alias := range []string{"fig4a", "fig4b"} {
		if tbs, ok := ByName(alias, cfg); !ok || len(tbs) == 0 {
			t.Fatalf("alias %q did not resolve", alias)
		}
	}
	if names := Names(); len(names) < 10 || names[len(names)-1] != "all" {
		t.Fatalf("names list incomplete or not ending in \"all\": %v", names)
	}
}

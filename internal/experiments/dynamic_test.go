package experiments

import (
	"reflect"
	"strconv"
	"testing"

	"ceio/internal/sim"
	"ceio/internal/workload"
)

// tinyConfig shrinks the dynamic scenario far below QuickConfig for unit
// testing the runners themselves.
func tinyConfig() Config {
	c := QuickConfig()
	c.Scenario = workload.ScenarioConfig{
		Epoch:  2 * sim.Millisecond,
		Epochs: 2,
		Warmup: 1 * sim.Millisecond,
		Sample: 250 * sim.Microsecond,
	}
	return c
}

func TestDynamicTableStructure(t *testing.T) {
	tbs := dynamicTables(tinyConfig(), [2]string{"t-dist", "t-burst"}, []workload.Method{workload.MethodCEIO})
	if len(tbs) != 2 {
		t.Fatalf("want 2 tables, got %d", len(tbs))
	}
	for _, tb := range tbs {
		if len(tb.Rows) != 1 || tb.Rows[0][0] != "CEIO" {
			t.Fatalf("%s rows: %v", tb.Title, tb.Rows)
		}
		if tb.Note == "" {
			t.Fatal("expected the expected-performance note")
		}
	}
}

// TestFig10TimelineTables: with SampleEvery set, Fig10 appends one
// timeline table per (scenario, method) cell after its two figure
// tables, which stay equal to an unsampled run's.
func TestFig10TimelineTables(t *testing.T) {
	plain := Fig10(tinyConfig())
	cfg := tinyConfig()
	cfg.SampleEvery = 500 * sim.Microsecond
	sampled := Fig10(cfg)
	if len(plain) != 2 {
		t.Fatalf("unsampled Fig10 rendered %d tables, want 2", len(plain))
	}
	if !reflect.DeepEqual(sampled[:2], plain) {
		t.Fatal("sampling changed the figure tables")
	}
	if want := 2 + 2*len(fig10Methods); len(sampled) != want {
		t.Fatalf("sampled Fig10 rendered %d tables, want %d", len(sampled), want)
	}
	for i, tb := range sampled[2:] {
		scenario := []string{"Figure 10a", "Figure 10b"}[i/len(fig10Methods)]
		if want := "Timeline — " + scenario + " — " + string(fig10Methods[i%len(fig10Methods)]); tb.Title != want {
			t.Fatalf("table %d title %q, want %q", i, tb.Title, want)
		}
		if !reflect.DeepEqual(tb.Header, []string{"t_ns", "involved_mpps", "total_gbps", "llc_miss_rate"}) {
			t.Fatalf("%s header %v", tb.Title, tb.Header)
		}
		if len(tb.Rows) == 0 || tb.Rows[0][0] != "500000" {
			t.Fatalf("%s rows start %v, want the first tick at 500000 ns", tb.Title, tb.Rows)
		}
	}
}

// TestDynamicTimelineSeedBands: with several seed replicas each rate
// gains _min/_max band columns bracketing the mean.
func TestDynamicTimelineSeedBands(t *testing.T) {
	cfg := tinyConfig()
	cfg.SampleEvery = 500 * sim.Microsecond
	cfg.Seeds = 2
	tbs := dynamicTables(cfg, [2]string{"t-dist", "t-burst"}, []workload.Method{workload.MethodHostCC})
	if len(tbs) != 4 {
		t.Fatalf("want 2 figure + 2 timeline tables, got %d", len(tbs))
	}
	tl := tbs[2]
	if len(tl.Header) != 10 || tl.Header[2] != "involved_mpps_min" || tl.Header[9] != "llc_miss_rate_max" {
		t.Fatalf("banded header %v", tl.Header)
	}
	for _, row := range tl.Rows {
		for c := 1; c < len(row); c += 3 {
			mean, _ := strconv.ParseFloat(row[c], 64)
			lo, _ := strconv.ParseFloat(row[c+1], 64)
			hi, _ := strconv.ParseFloat(row[c+2], 64)
			if lo > mean || mean > hi {
				t.Fatalf("row %v: %s mean %v outside [%v, %v]", row, tl.Header[c], mean, lo, hi)
			}
		}
	}
}

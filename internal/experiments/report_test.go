package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"ceio/internal/sim"
	"ceio/internal/telemetry"
)

func sampleTable() Table {
	return Table{
		Title:  "Sample",
		Note:   "a note",
		Header: []string{"col a", "b"},
		Rows:   [][]string{{"x", "1.00"}, {"longer cell", "2.00"}},
	}
}

func TestRenderAligned(t *testing.T) {
	var buf bytes.Buffer
	sampleTable().Render(&buf)
	out := buf.String()
	for _, want := range []string{"== Sample ==", "a note", "col a", "longer cell"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Columns align: every data line starts at the same offset.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines: %d", len(lines))
	}
}

func TestRenderCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# Sample\n") {
		t.Fatalf("missing title comment: %q", out)
	}
	if !strings.Contains(out, "col a,b\n") || !strings.Contains(out, "longer cell,2.00\n") {
		t.Fatalf("bad csv:\n%s", out)
	}
}

// TestTimelineLateSeries: a gauge registered after the sampler's second
// tick (as pipeline module series are mid-run) has empty CSV cells and
// no JSONL values at ticks 0-1, and a timeline table over the same
// sampler lays out the same grid as the -series-out CSV.
func TestTimelineLateSeries(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := telemetry.NewRegistry()
	var pkts uint64
	reg.Counter("iosys.involved.packets_total", "Packets.", func() uint64 { return pkts })
	eng.Every(100*sim.Microsecond, 100*sim.Microsecond, func() { pkts += 3 })
	s := telemetry.NewSampler(eng, reg, sim.Millisecond, nil)
	const late = `dataplane.state.resident_bytes{module="nat64"}`
	eng.At(2500*sim.Microsecond, func() {
		reg.Gauge("dataplane.state.resident_bytes", "Resident state.",
			func() float64 { return float64(pkts) / 7 }, telemetry.L("module", "nat64"))
	})
	eng.RunUntil(5 * sim.Millisecond)
	s.Stop()

	var csvOut bytes.Buffer
	if err := s.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(csvOut.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || recs[0][1] != late {
		t.Fatalf("CSV header %q with %d lines, want %q in column 1 and 6 lines", recs[0], len(recs), late)
	}
	for tick, rec := range recs[1:] {
		if empty := rec[1] == ""; empty != (tick < 2) {
			t.Fatalf("tick %d: late gauge cell %q (empty only before it joined at tick 2)", tick, rec[1])
		}
	}

	var jsonOut bytes.Buffer
	if err := s.WriteJSONL(&jsonOut); err != nil {
		t.Fatal(err)
	}
	for tick, line := range strings.Split(strings.TrimSpace(jsonOut.String()), "\n") {
		var row struct{ Values map[string]float64 }
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		if _, ok := row.Values[late]; ok != (tick >= 2) {
			t.Fatalf("JSONL tick %d: late gauge present=%v", tick, ok)
		}
	}

	var tableOut bytes.Buffer
	if err := timelineTable("late", "", s.Ticks(), s.Series()).RenderCSV(&tableOut); err != nil {
		t.Fatal(err)
	}
	if want := "# Timeline — late\n" + csvOut.String(); tableOut.String() != want {
		t.Fatalf("timeline table CSV differs from WriteCSV:\n%s\n---\n%s", tableOut.String(), want)
	}
}

func TestFormattingHelpers(t *testing.T) {
	if f2(1.234) != "1.23" {
		t.Fatal("f2")
	}
	if pct(0.123) != "12.3%" {
		t.Fatal("pct")
	}
	if us(1500) != "1.50" {
		t.Fatal("us")
	}
	if got := speedupStat(Stat{Mean: 2, N: 1}, Stat{Mean: 1, N: 1}); got != "2.00 (2.00x)" {
		t.Fatalf("speedupStat: %q", got)
	}
	if speedupStat(Stat{Mean: 2, N: 1}, Stat{}) != "2.00" {
		t.Fatal("speedupStat with zero base")
	}
	if got := reduction(500, 1000); !strings.Contains(got, "2.00x") {
		t.Fatalf("reduction: %q", got)
	}
	if reduction(0, 10) != "0.00" {
		t.Fatalf("reduction zero: %q", reduction(0, 10))
	}
	if ratio(10, 0) != 0 || ratio(10, 5) != 2 {
		t.Fatal("ratio")
	}
}

func TestQuickConfigSmaller(t *testing.T) {
	full, quick := Default(), QuickConfig()
	if quick.Measure >= full.Measure || !quick.Quick {
		t.Fatal("quick config should shrink windows")
	}
}

package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateSeedsGolden = flag.Bool("update-seeds-golden", false, "rewrite testdata/seeds.golden")

// TestSeedsGolden pins the multi-seed rendering of every registry
// experiment: min/mean/max scalar cells, speedups taken on the means,
// and latency percentiles over histograms merged across the replicas.
// Regenerate with -update-seeds-golden only for an intended change.
func TestSeedsGolden(t *testing.T) {
	cfg := microCfg()
	cfg.Seeds = 2
	names := Names()
	var sb strings.Builder
	for _, name := range names[:len(names)-1] {
		tables, _ := ByName(name, cfg)
		for _, tb := range tables {
			tb.Render(&sb)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "seeds.golden")
	if *updateSeedsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-seeds-golden to create it)", err)
	}
	if got != string(want) {
		t.Errorf("multi-seed output diverged from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

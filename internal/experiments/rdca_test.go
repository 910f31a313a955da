package experiments

import (
	"testing"
)

// rdcaRow finds a table row by its datapath label.
func rdcaRow(t *testing.T, tb Table, name string) []string {
	t.Helper()
	for _, row := range tb.Rows {
		if row[0] == name {
			return row
		}
	}
	t.Fatalf("table %q has no row %q", tb.Title, name)
	return nil
}

// TestRDCAWinLoseCriteria locks the two headline results of the rdca
// experiment — the acceptance criteria of the RDCA-mode work:
//
//   - Latency-bound KV: RDCA's p99 is strictly below CEIO's, because the
//     receiver-side window check costs ~20ns where CEIO's on-NIC credit
//     controller pays ~150ns per packet.
//   - Bursty DFS on a scarce DDIO region: CEIO's throughput is strictly
//     above RDCA's (fixed and adaptive), because the elastic on-NIC
//     buffer parks the burst excess that RDCA's cache-bounded window
//     must drop.
//
// The runs are deterministic, so the comparisons are exact, not
// statistical.
func TestRDCAWinLoseCriteria(t *testing.T) {
	tables := RDCA(QuickConfig())
	if len(tables) != 2 {
		t.Fatalf("RDCA returned %d tables, want 2", len(tables))
	}
	lat, burst := tables[0], tables[1]

	// Win: RDCA beats CEIO on p99 latency (column 2), with throughput
	// tied (column 1) since offered load is fixed below capacity.
	ceioP99 := numCell(t, rdcaRow(t, lat, "CEIO")[2])
	rdcaP99 := numCell(t, rdcaRow(t, lat, "RDCA adaptive")[2])
	if rdcaP99 >= ceioP99 {
		t.Errorf("latency-bound KV: RDCA p99 %vµs not below CEIO p99 %vµs", rdcaP99, ceioP99)
	}
	within(t, "latency-bound KV: CEIO involved Mpps", numCell(t, rdcaRow(t, lat, "CEIO")[1]), numCell(t, rdcaRow(t, lat, "RDCA adaptive")[1]))

	// Lose: CEIO beats RDCA on bypass throughput (column 1) under bursts
	// the scarce DDIO region cannot hold — adaptive and fixed alike.
	ceioGbps := numCell(t, rdcaRow(t, burst, "CEIO")[1])
	for _, name := range []string{"RDCA w=64", "RDCA adaptive"} {
		if g := numCell(t, rdcaRow(t, burst, name)[1]); g >= ceioGbps {
			t.Errorf("bursty DFS: %s %v Gbps not below CEIO %v Gbps", name, g, ceioGbps)
		}
	}
}

// TestRDCAGoldenCells pins the headline numbers of the quick-mode rdca
// experiment (seed 1). The simulation is deterministic, so drift here
// means a behaviour change in the datapath or the workloads, not noise.
func TestRDCAGoldenCells(t *testing.T) {
	tables := RDCA(QuickConfig())
	lat, burst := tables[0], tables[1]
	within(t, "KV p99 CEIO (µs)", numCell(t, rdcaRow(t, lat, "CEIO")[2]), 1.90)
	within(t, "KV p99 RDCA adaptive (µs)", numCell(t, rdcaRow(t, lat, "RDCA adaptive")[2]), 1.78)
	within(t, "burst Gbps CEIO", numCell(t, rdcaRow(t, burst, "CEIO")[1]), 62.25)
	within(t, "burst Gbps RDCA adaptive", numCell(t, rdcaRow(t, burst, "RDCA adaptive")[1]), 3.33)
}

// Package render holds the shared plain-text renderers behind every CLI
// report: the aggregate run-summary line, the per-flow measurement line,
// aligned/CSV table output, and the scalar formatters (two-decimal
// rates, percentages, microsecond latencies) the experiment tables use.
// It exists so `ceio-sim`, `ceio-bench`, and the experiments package
// render identically from the telemetry registry instead of each
// hand-rolling its own format strings — the paper-side counterpart is
// simply the uniform number formatting of the evaluation's tables
// (§6.2–§6.3), where a metric means the same thing wherever it appears.
package render

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// F2 formats a rate/ratio with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Pct formats a 0..1 ratio as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// Us formats nanoseconds as microseconds with two decimals.
func Us(ns float64) string { return fmt.Sprintf("%.2f", ns/1e3) }

// SummaryLine renders the one-line aggregate summary of a run.
func SummaryLine(arch string, mpps, gbps, involvedMpps, bypassGbps, missRate float64, drops uint64) string {
	return fmt.Sprintf("[%s] %.2f Mpps / %.2f Gbps (involved %.2f Mpps, bypass %.2f Gbps), LLC miss %.1f%%, drops %d",
		arch, mpps, gbps, involvedMpps, bypassGbps, missRate*100, drops)
}

// FlowLine renders one flow's measurement line under a summary. The
// label column is fixed-width so stacked flows align.
func FlowLine(label string, mpps, gbps, p50us, p99us, p999us float64, drops uint64) string {
	return fmt.Sprintf("  %-40s %8.2f Mpps %8.2f Gbps  p50=%6.2fµs p99=%7.2fµs p99.9=%7.2fµs drops=%d",
		label, mpps, gbps, p50us, p99us, p999us, drops)
}

// AlignedTable writes a titled table with space-aligned columns.
func AlignedTable(w io.Writer, title, note string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	if note != "" {
		fmt.Fprintf(w, "%s\n", note)
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// CSVTable writes a table as CSV with a leading title comment, for
// plotting pipelines.
func CSVTable(w io.Writer, title string, header []string, rows [][]string) error {
	if _, err := fmt.Fprintf(w, "# %s\n", title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

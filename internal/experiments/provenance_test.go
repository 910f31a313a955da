package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// section returns doc from the heading head up to the next heading of
// head's level or higher.
func section(t *testing.T, doc, head string) string {
	t.Helper()
	_, body, ok := strings.Cut(doc, "\n"+head)
	if !ok {
		t.Fatalf("OBSERVABILITY.md has no %q heading", head)
	}
	level, _, _ := strings.Cut(head, " ")
	end := len(body)
	for h := "#"; len(h) <= len(level); h += "#" {
		if i := strings.Index(body, "\n"+h+" "); i >= 0 && i < end {
			end = i
		}
	}
	return body[:end]
}

// TestColumnsHaveProvenance walks every experiment's column
// declarations: each column must name a series OBSERVABILITY.md's
// catalogue documents, or a derivation its "Experiment columns"
// subsection lists.
func TestColumnsHaveProvenance(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	catalogue := section(t, doc, "## Series catalogue")
	derived := section(t, doc, "### Experiment columns")
	for _, d := range derivations {
		if !strings.Contains(derived, "| `"+d+"` |") {
			t.Errorf("derivation %q is not listed under \"Experiment columns\" in OBSERVABILITY.md", d)
		}
	}
	n := 0
	for _, e := range registry {
		for _, set := range e.cols {
			for _, c := range set {
				n++
				if slices.Contains(derivations, c.name) {
					continue
				}
				if !strings.Contains(catalogue, "| `"+c.name+"` |") {
					t.Errorf("%s: column %q is neither a catalogued series nor a derivation", e.name, c.name)
				}
			}
		}
	}
	if n < 40 {
		t.Fatalf("only %d declared columns found; the registry lost its column sets", n)
	}
}

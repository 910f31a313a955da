package main

import (
	"slices"
	"testing"

	"ceio"
)

// TestFlowMixCarriesPipeline pins the flag-built flow mix both run modes
// share: IDs run kv, dfs, echo from the first ID, the -pipeline chain
// and the involved tenant ride on kv and echo flows, and dfs flows carry
// no chain and the bypass tenant.
func TestFlowMixCarriesPipeline(t *testing.T) {
	chain := []string{"nat64", "firewall"}
	mix := flowMix{kv: 2, dfs: 1, echo: 1, chain: chain, involvedTenant: "kv", bypassTenant: "bulk"}
	specs := mix.specs(5)
	if len(specs) != 4 {
		t.Fatalf("got %d specs, want 4", len(specs))
	}
	for i, s := range specs {
		if s.ID != 5+i {
			t.Errorf("spec %d has ID %d, want %d", i, s.ID, 5+i)
		}
		if s.Kind == ceio.CPUBypass {
			if s.Pipeline != nil || s.Tenant != "bulk" {
				t.Errorf("dfs flow %d: pipeline %v, tenant %q; want none, \"bulk\"", s.ID, s.Pipeline, s.Tenant)
			}
			continue
		}
		if !slices.Equal(s.Pipeline, chain) || s.Tenant != "kv" {
			t.Errorf("cpu-involved flow %d: pipeline %v, tenant %q; want %v, \"kv\"", s.ID, s.Pipeline, s.Tenant, chain)
		}
	}
	if specs[2].Kind != ceio.CPUBypass || specs[3].PktSize != 512 {
		t.Errorf("want kv, kv, dfs, then a 512B echo flow; got %+v", specs)
	}
}

package experiments

import (
	"testing"

	"ceio/internal/tenant"
)

// TestTenantsDynamicBeatsShared pins the experiment's headline result:
// with the file-transfer antagonist active, the victim KV tenant's LLC
// miss rate must be strictly lower under dynamic repartitioning than
// under the shared (unpartitioned) LLC — even though dynamic mode starts
// from a deliberately starved victim allocation.
func TestTenantsDynamicBeatsShared(t *testing.T) {
	cfg := QuickConfig()
	schemes := tenantSchemes
	if len(schemes) != 4 {
		t.Fatalf("schemes: %d, want 4", len(schemes))
	}
	// tenantCols: victim miss, victim Mpps, victim P99, antagonist Gbps,
	// ways kv/bulk/pool, ways moved.
	shared := runTenantCell(cfg, schemes[0]).v
	dynamic := runTenantCell(cfg, schemes[2]).v

	if shared[0] <= 0 {
		t.Fatalf("shared baseline shows no victim LLC misses (%.3f); antagonist is not thrashing", shared[0])
	}
	if dynamic[0] >= shared[0] {
		t.Fatalf("dynamic victim miss %.3f not strictly below shared %.3f", dynamic[0], shared[0])
	}
	// The controller must actually have migrated ways away from the
	// starved start (kv=1), not merely inherited a good layout.
	if dynamic[7] == 0 {
		t.Fatal("dynamic repartitioning moved no ways from the starved start")
	}
	if dynamic[4] <= 1 {
		t.Fatalf("victim still starved after repartitioning: kv=%v ways", dynamic[4])
	}
}

// TestTenantsCEIOCell smoke-tests the fourth row: CEIO's datapath on a
// dynamically partitioned machine, with per-tenant credit budgets.
func TestTenantsCEIOCell(t *testing.T) {
	cfg := QuickConfig()
	sc := tenantSchemes[3]
	if !sc.ceio || sc.mode != tenant.ModeDynamic {
		t.Fatalf("scheme 3 is %+v, want dynamic+CEIO", sc)
	}
	r := runTenantCell(cfg, sc).v
	if r[1] <= 0 || r[3] <= 0 {
		t.Fatalf("CEIO cell delivered nothing: %v", r)
	}
	if int(r[4]+r[5]+r[6]) != tenant.DefaultWays {
		t.Fatalf("ways not conserved: kv=%v bulk=%v pool=%v", r[4], r[5], r[6])
	}
}

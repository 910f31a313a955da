package tenant

import (
	"testing"

	"ceio/internal/cache"
)

// FuzzRepartition throws arbitrary byte-driven workloads and scan
// schedules at the dynamic repartitioner and checks the structural
// invariants after every scan: ways conserved, waymasks disjoint, no
// tenant starved below its floor, partition capacities matching masks,
// and occupancies summing to the global LLC occupancy.
func FuzzRepartition(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x10, 0x42})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 200, 100, 50, 25})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Layout derived from the first byte: 2 or 3 tenants, quotas that
		// always fit in 6 ways.
		layouts := [][]Spec{
			{{ID: "a", Ways: 1}, {ID: "b", Ways: 4}},
			{{ID: "a", Ways: 2}, {ID: "b", Ways: 2}, {ID: "c", Ways: 1}},
			{{ID: "a", Ways: 3, MinWays: 2}, {ID: "b", Ways: 3}},
			{{ID: "a", Ways: 1}, {ID: "b", Ways: 1}},
		}
		cfg := dynConfig(layouts[int(data[0])%len(layouts)]...)
		llc := cache.NewLLC(1 << 20)
		r, err := NewRegistry(cfg, llc)
		if err != nil {
			t.Fatalf("registry rejected a valid layout: %v", err)
		}
		r.SetEvictSink(func([]cache.Evicted) {})
		ctrl := NewController(r)

		parts := llc.Partitions()
		var handles []cache.Handle // handles[id-1] is buffer id's
		for i, b := range data[1:] {
			tenantIdx := int(b>>4) % len(r.Tenants())
			switch b % 5 {
			case 0, 1: // insert into some partition
				size := int64(64 * (1 + int(b%32)))
				h, _ := llc.InsertIOSized(int(b>>4)%parts, cache.BufID(len(handles)+1), size, size)
				handles = append(handles, h)
			case 2: // account a hit or miss against a tenant
				r.Account(tenantIdx, b&0x08 != 0)
			case 3: // consume through a partition
				if n := len(handles); n > 0 {
					k := int(b) * (i + 1) % n
					llc.ConsumeIn(int(b>>4)%parts, handles[k], cache.BufID(k+1))
				}
			case 4: // scan: the repartitioner moves ways
				ctrl.ScanOnce()
			}
		}
		ctrl.ScanOnce()
		if err := r.Audit(); err != nil {
			t.Fatalf("tenancy invariants violated: %v\nallocation: %s", err, r)
		}
		total := 0
		for _, tn := range r.Tenants() {
			total += tn.Ways
			if tn.Ways < tn.MinWays {
				t.Fatalf("tenant %s starved below floor: %d < %d", tn.ID, tn.Ways, tn.MinWays)
			}
		}
		if total+r.SharedWays() != 6 {
			t.Fatalf("ways not conserved: %d tenant + %d shared != 6", total, r.SharedWays())
		}
	})
}

package main

import "testing"

// TestDeterminism pins what model.digest promises: a seed reproduces every
// simulated statistic exactly, another seed changes them, and the rack's
// pool width changes nothing.
func TestDeterminism(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a, _ := run(t, name, options{seed: 1, width: 1, scale: shortScale})
			b, _ := run(t, name, options{seed: 1, width: 1, scale: shortScale})
			if a.digest() != b.digest() || a.reps[0].model != b.reps[0].model {
				t.Errorf("seed 1 twice: digests %016x and %016x, models %+v and %+v",
					a.digest(), b.digest(), a.reps[0].model, b.reps[0].model)
			}
			if c, _ := run(t, name, options{seed: 2, width: 1, scale: shortScale}); c.digest() == a.digest() {
				t.Errorf("seeds 1 and 2 share digest %016x", a.digest())
			}
			if name != "fleet-rack" {
				return
			}
			if d, _ := run(t, name, options{seed: 1, width: 2, scale: shortScale}); d.digest() != a.digest() {
				t.Errorf("pool width 2 digest %016x, width 1 digest %016x", d.digest(), a.digest())
			}
		})
	}
}

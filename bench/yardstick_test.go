package main

import (
	"testing"
	"time"
)

// The yardstick runs inside timed windows' repetitions, between slices:
// an allocation there would show up in alloc_mb_per_sim_ms and in the
// collector's work.
func TestYardstickAllocatesNothing(t *testing.T) {
	y := newYardstick()
	y.time()
	if n := testing.AllocsPerRun(20, func() { y.time() }); n != 0 {
		t.Fatalf("yardstick unit allocates %v times, want 0", n)
	}
}

func TestHostSpeed(t *testing.T) {
	for _, c := range []struct {
		samples []time.Duration
		want    float64
	}{
		{nil, 1},
		{[]time.Duration{yardstickNominal}, 1},
		// The median, not the mean: one unit the host stalled does not
		// move the speed.
		{[]time.Duration{2 * yardstickNominal, 100 * yardstickNominal, 2 * yardstickNominal}, 0.5},
		{[]time.Duration{yardstickNominal / 2, yardstickNominal / 2, yardstickNominal, yardstickNominal}, 4.0 / 3},
	} {
		if got := hostSpeed(c.samples); got != c.want {
			t.Errorf("hostSpeed(%v) = %v, want %v", c.samples, got, c.want)
		}
	}
}

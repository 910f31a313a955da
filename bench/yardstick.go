package main

import "time"

// The benchmark shares its host with other tenants, and the host's speed
// drifts under it by tens of percent within minutes: the clock steps down
// as the socket gets busy, and neighbours compete for the core's caches.
// No run is long enough to average out a drift that slow, so the
// benchmark measures the host's speed as it goes. Between timed slices it
// times a yardstick, a fixed unit of work that no change to the simulator
// can move, and reports each repetition's host times scaled to the speed
// at which the yardstick takes yardstickNominal:
//
//	t × yardstickNominal / (median yardstick time over the repetition)
//
// The yardstick pushes keys through a binary heap and a hash table, two
// structures an event-driven simulator leans on, using only the Go
// runtime, and allocates nothing once built. Its data is small, so the
// simulation running between units evicts it and each unit pays some
// cache misses; that is what makes it slow down with the host's caches as
// well as with its clock.

const (
	yardstickKeys = 512
	// yardstickEvery is the least host time between two yardstick units;
	// a unit takes about 1% of it.
	yardstickEvery = 5 * time.Millisecond
	// yardstickNominal is about the unit's median time on a quiet 2-vCPU
	// Intel Xeon (Sapphire Rapids) VM with Go 1.24, so on such a host
	// scaled and raw times are close.
	yardstickNominal = 50 * time.Microsecond
)

type yardstick struct {
	heap  []uint64
	table map[uint64]uint32
	last  time.Time
	sink  uint64 // consumes every result, so no work is optimised away
}

func newYardstick() *yardstick {
	return &yardstick{
		heap:  make([]uint64, 0, yardstickKeys),
		table: make(map[uint64]uint32, yardstickKeys),
	}
}

// due reports whether yardstickEvery has passed since the last unit.
func (y *yardstick) due() bool { return time.Since(y.last) >= yardstickEvery }

// time runs one unit and returns how long it took.
func (y *yardstick) time() time.Duration {
	t0 := time.Now()
	y.unit()
	y.last = time.Now()
	return y.last.Sub(t0)
}

// unit pushes yardstickKeys pseudo-random keys onto a binary min-heap and
// pops them all, then inserts as many more into the hash table and probes
// it with twice as many. The key sequence is the same every time.
func (y *yardstick) unit() {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := y.heap[:0]
	for i := 0; i < yardstickKeys; i++ {
		h = append(h, next())
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
	}
	var acc uint64
	for n := len(h); n > 0; {
		acc += h[0]
		n--
		h[0] = h[n]
		h = h[:n]
		for j := 0; ; {
			c := 2*j + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1] < h[c] {
				c++
			}
			if h[j] <= h[c] {
				break
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
	}
	y.heap = h
	for i := 0; i < yardstickKeys; i++ {
		y.table[next()>>32] = uint32(i)
	}
	for i := 0; i < 2*yardstickKeys; i++ {
		acc += uint64(y.table[next()>>32])
	}
	clear(y.table)
	y.sink += acc
}

// hostSpeed is the factor that scales host times measured while the
// yardstick took samples to the nominal speed: above 1 when the host ran
// faster than nominal. It is 1 without samples.
func hostSpeed(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	v := make([]float64, len(samples))
	for i, d := range samples {
		v[i] = float64(d)
	}
	return float64(yardstickNominal) / quantile(v, 0.5)
}

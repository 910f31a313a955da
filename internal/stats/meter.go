package stats

import "ceio/internal/sim"

// Meter accumulates packet and byte counts over a measurement window and
// converts them into the units the paper reports: Mpps and Gbps.
type Meter struct {
	Packets uint64
	Bytes   uint64
	start   sim.Time
	started bool
}

// StartAt marks the beginning of the measurement window. Counts recorded
// before StartAt still accumulate; callers normally Reset at window start.
func (m *Meter) StartAt(t sim.Time) { m.start, m.started = t, true }

// Record adds one packet of the given size.
func (m *Meter) Record(bytes int) {
	m.Packets++
	m.Bytes += uint64(bytes)
}

// Reset zeroes the counters and restarts the window at t.
func (m *Meter) Reset(t sim.Time) {
	m.Packets, m.Bytes = 0, 0
	m.StartAt(t)
}

// Window returns the elapsed window given the current time.
func (m *Meter) Window(now sim.Time) sim.Time {
	if !m.started {
		return now
	}
	return now - m.start
}

// Mpps returns million packets per second over the window ending at now.
func (m *Meter) Mpps(now sim.Time) float64 {
	w := m.Window(now)
	if w <= 0 {
		return 0
	}
	return float64(m.Packets) / w.Seconds() / 1e6
}

// Gbps returns gigabits per second of goodput over the window ending at now.
func (m *Meter) Gbps(now sim.Time) float64 {
	w := m.Window(now)
	if w <= 0 {
		return 0
	}
	return float64(m.Bytes) * 8 / w.Seconds() / 1e9
}

// EWMA is an exponentially weighted moving average with gain g, as used by
// DCTCP's α estimator (g = 1/16 in the paper's configuration).
type EWMA struct {
	Gain  float64
	value float64
	init  bool
}

// Update folds sample into the average and returns the new value.
func (e *EWMA) Update(sample float64) float64 {
	if !e.init {
		e.value, e.init = sample, true
		return e.value
	}
	e.value = (1-e.Gain)*e.value + e.Gain*sample
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }

// Ratio is a convenience for hit/miss style rates; it returns num/den or 0.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

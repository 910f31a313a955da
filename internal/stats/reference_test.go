package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refHistogram is the map-backed histogram the paged one replaced, kept
// verbatim as a differential oracle: one map entry per non-empty bucket,
// an explicit hasMin flag, and a Reset that drops the map.
type refHistogram struct {
	counts map[int]uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
	hasMin bool
}

func (h *refHistogram) Record(v int64) {
	if h.counts == nil {
		h.counts = make(map[int]uint64)
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
	if !h.hasMin || v < h.min {
		h.min, h.hasMin = v, true
	}
	if v > h.max {
		h.max = v
	}
}

func (h *refHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

func (h *refHistogram) Percentile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	maxIdx := bucketIndex(h.max)
	var cum uint64
	for i := 0; i <= maxIdx; i++ {
		c, ok := h.counts[i]
		if !ok {
			continue
		}
		cum += c
		if cum >= target {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

func (h *refHistogram) Merge(other *refHistogram) {
	if other == nil || other.total == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make(map[int]uint64)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if !h.hasMin || other.min < h.min {
		h.min, h.hasMin = other.min, true
	}
	if other.max > h.max {
		h.max = other.max
	}
}

func (h *refHistogram) Reset() {
	h.counts = nil
	h.total = 0
	h.sum = 0
	h.min, h.max, h.hasMin = 0, 0, false
}

// allQuantiles is every quantile the differential check compares:
// 0, 0.01, ..., 0.99, then 0.999 and 1.
var allQuantiles = func() []float64 {
	qs := make([]float64, 0, 102)
	for k := 0; k < 100; k++ {
		qs = append(qs, float64(k)/100)
	}
	return append(qs, 0.999, 1)
}()

// tailQuantiles is the cheap check run between full comparisons.
var tailQuantiles = []float64{0.5, 0.99, 0.999}

func diffHistogram(t *testing.T, step int, name string, got *Histogram, want *refHistogram, qs []float64) {
	t.Helper()
	if got.Count() != want.total || got.Min() != want.min || got.Max() != want.max {
		t.Fatalf("step %d %s: count/min/max = %d/%d/%d, reference %d/%d/%d",
			step, name, got.Count(), got.Min(), got.Max(), want.total, want.min, want.max)
	}
	if g, w := math.Float64bits(got.Mean()), math.Float64bits(want.Mean()); g != w {
		t.Fatalf("step %d %s: mean = %v, reference %v", step, name, got.Mean(), want.Mean())
	}
	for _, q := range qs {
		if g, w := got.Percentile(q), want.Percentile(q); g != w {
			t.Fatalf("step %d %s: Percentile(%v) = %d, reference %d", step, name, q, g, w)
		}
	}
}

// runHistogramDiff decodes data into operations on three histograms and
// their map-backed references and checks they agree. Each operation is
// seven bytes: an opcode, an operand byte, and a five-byte value field.
// Values are log-uniform over [0, 2^40) (so powers of two are skipped and
// pages stay nil in between), a quarter of them negated. Records dominate;
// the rest reset, merge one histogram into another or into itself, merge
// nil, or merge through an empty histogram. Merges, the end of the
// stream, and opcode 31 compare every quantile; every 64th record
// compares the tails.
func runHistogramDiff(t *testing.T, data []byte) {
	const n = 3
	var hs [n]Histogram
	var refs [n]refHistogram
	full := func(step, k int) {
		diffHistogram(t, step, "h"+string(rune('0'+k)), &hs[k], &refs[k], allQuantiles)
	}
	records := 0
	step := 0
	for ; len(data) >= 7; data, step = data[7:], step+1 {
		op, arg := data[0]%32, data[1]
		k := int(arg) % n
		switch {
		case op < 27:
			var raw [8]byte
			copy(raw[:5], data[2:7])
			e := uint(arg>>2) % 41
			v := int64(binary.LittleEndian.Uint64(raw[:]) & (1<<e - 1))
			if arg&0xc0 == 0xc0 {
				v = -v
			}
			hs[k].Record(v)
			refs[k].Record(v)
			if records++; records%64 == 0 {
				diffHistogram(t, step, "record", &hs[k], &refs[k], tailQuantiles)
			}
		case op == 27 || op == 28:
			hs[k].Reset()
			refs[k].Reset()
			full(step, k)
		case op == 29:
			src := int(arg/n) % n // src == k is a self-merge
			hs[k].Merge(&hs[src])
			refs[k].Merge(&refs[src])
			full(step, k)
			full(step, src)
		case op == 30:
			// nil and empty sources are no-ops; an empty destination
			// takes the source whole.
			hs[k].Merge(nil)
			hs[k].Merge(&Histogram{})
			var fresh Histogram
			var freshRef refHistogram
			fresh.Merge(&hs[k])
			freshRef.Merge(&refs[k])
			full(step, k)
			diffHistogram(t, step, "fresh", &fresh, &freshRef, allQuantiles)
		default:
			for k := range hs {
				full(step, k)
			}
		}
	}
	for k := range hs {
		full(step, k)
	}
}

// TestHistogramMatchesReference drives the paged histogram and the map
// histogram it replaced with the same random records, resets and merges
// and requires identical count, extrema, mean bits and percentiles.
func TestHistogramMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 7*2000)
		rng.Read(data)
		runHistogramDiff(t, data)
	}
}

// FuzzHistogram feeds arbitrary byte strings to the differential driver.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{0x00, 0xa0, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x01, 0x05, 0, 0, 0, 0, 0x1f, 0x00, 0, 0, 0, 0, 0})
	f.Add([]byte{0x00, 0x04, 0x07, 0, 0, 0, 0, 0x1d, 0x00, 0, 0, 0, 0, 0, 0x1b, 0x00, 0, 0, 0, 0, 0, 0x00, 0xfc, 0x10, 0x20, 0x30, 0x40, 0x50})
	f.Add([]byte("record-reset-merge-self-merge-nil-merge-empty-percentile"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runHistogramDiff(t, data)
	})
}

// TestHistogramSteadyStateZeroAlloc pins the point of keeping pages across
// Reset: once a histogram has seen a range, a measurement window that
// resets it and records the same range again allocates nothing.
func TestHistogramSteadyStateZeroAlloc(t *testing.T) {
	var h Histogram
	spread := func() {
		for v := int64(0); v <= 1_000_000; v += 997 {
			h.Record(v)
		}
	}
	spread()
	allocs := testing.AllocsPerRun(100, func() {
		h.Reset()
		spread()
	})
	if allocs != 0 {
		t.Fatalf("reset-and-refill allocates %.1f times per window, want 0", allocs)
	}
}

// TestHistogramSize pins Histogram at 56 bytes. Every iosys.Flow embeds
// one, and TestFlowFitsSizeClass in internal/iosys holds Flow to the
// 384-byte size class with no room to spare: a field added here fails
// this test first.
func TestHistogramSize(t *testing.T) {
	if n := unsafe.Sizeof(Histogram{}); n > 56 {
		t.Fatalf("unsafe.Sizeof(Histogram{}) = %d, want <= 56", n)
	}
}

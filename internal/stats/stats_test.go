package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ceio/internal/sim"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 32; i++ {
		h.Record(i)
	}
	if h.Min() != 0 || h.Max() != 31 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if got := h.Percentile(0.5); got != 15 && got != 16 {
		t.Fatalf("p50 = %d", got)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	var raw []int64
	for i := 0; i < 100000; i++ {
		v := int64(rng.ExpFloat64() * 10000)
		raw = append(raw, v)
		h.Record(v)
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := raw[int(q*float64(len(raw)))-1]
		got := h.Percentile(q)
		relErr := float64(got-exact) / float64(exact)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 0.05 {
			t.Errorf("q=%v: got %d, exact %d, relErr %.3f", q, got, exact, relErr)
		}
	}
}

func TestHistogramEmptyAndEdge(t *testing.T) {
	var h Histogram
	if h.Percentile(0.99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Record(-5) // clamped to 0
	if h.Percentile(0.5) > 0 {
		t.Fatal("negative values should clamp to 0 bucket")
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vals {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			p := h.Percentile(q)
			if p < prev {
				return false
			}
			prev = p
		}
		return h.Percentile(1) == h.Max() && h.Percentile(0) >= h.Min()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramPercentileEdgeCases pins the quantile boundary semantics:
// q<=0 returns the lowest recorded bucket (clamped to the exact min),
// q>=1 returns the exact max, and a single-sample histogram answers that
// sample for every quantile.
func TestHistogramPercentileEdgeCases(t *testing.T) {
	var h Histogram
	for _, v := range []int64{10, 20, 30, 40, 5000} {
		h.Record(v)
	}
	if got := h.Percentile(0); got != 10 {
		t.Fatalf("P0 = %d, want exact min 10", got)
	}
	if got := h.Percentile(-0.5); got != 10 {
		t.Fatalf("negative q = %d, want clamp to min", got)
	}
	if got := h.Percentile(1); got != 5000 {
		t.Fatalf("P100 = %d, want exact max 5000", got)
	}
	if got := h.Percentile(2.5); got != 5000 {
		t.Fatalf("q>1 = %d, want exact max", got)
	}

	var single Histogram
	single.Record(12345)
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := single.Percentile(q); got != 12345 {
			t.Fatalf("single-sample P%v = %d, want 12345 (min/max clamp)", q*100, got)
		}
	}
}

// TestHistogramMergeConsistency checks that percentiles of a merged
// histogram equal percentiles of one histogram that recorded the union
// of the samples — the property the multi-seed experiment aggregation
// relies on.
func TestHistogramMergeConsistency(t *testing.T) {
	var all, a, b, c Histogram
	for i := int64(0); i < 3000; i++ {
		v := (i*i)%7919 + 1
		all.Record(v)
		switch i % 3 {
		case 0:
			a.Record(v)
		case 1:
			b.Record(v)
		case 2:
			c.Record(v)
		}
	}
	var merged Histogram
	merged.Merge(&a)
	merged.Merge(&b)
	merged.Merge(&c)
	if merged.Count() != all.Count() || merged.Min() != all.Min() || merged.Max() != all.Max() {
		t.Fatalf("merged n=%d min=%d max=%d; all n=%d min=%d max=%d",
			merged.Count(), merged.Min(), merged.Max(), all.Count(), all.Min(), all.Max())
	}
	if merged.Mean() != all.Mean() {
		t.Fatalf("merged mean %v != %v", merged.Mean(), all.Mean())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if m, w := merged.Percentile(q), all.Percentile(q); m != w {
			t.Fatalf("P%v: merged %d != direct %d", q*100, m, w)
		}
	}
}

// TestBucketIndexMatchesReference checks the bits.LeadingZeros64-based
// bucket mapping against a bit-by-bit reference implementation.
func TestBucketIndexMatchesReference(t *testing.T) {
	ref := func(v uint64) int {
		n := 0
		for i := 63; i >= 0; i-- {
			if v&(1<<uint(i)) != 0 {
				break
			}
			n++
		}
		return n
	}
	for _, v := range []int64{32, 33, 63, 64, 1 << 10, 1<<20 + 7, 1<<62 + 999} {
		exp := 63 - ref(uint64(v))
		top := int(v >> (uint(exp) - subBucketBits))
		want := (exp-subBucketBits+1)<<subBucketBits + (top - 1<<subBucketBits)
		if got := bucketIndex(v); got != want {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := int64(1); i <= 100; i++ {
		a.Record(i)
	}
	for i := int64(1000); i <= 2000; i++ {
		b.Record(i)
	}
	a.Merge(&b)
	if a.Count() != 100+1001 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Min() != 1 || a.Max() != 2000 {
		t.Fatalf("min=%d max=%d", a.Min(), a.Max())
	}
	a.Merge(nil) // no-op
	if a.Count() != 1101 {
		t.Fatal("merge nil changed count")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 100, 1023, 1024, 1 << 20, 1<<40 + 12345} {
		i := bucketIndex(v)
		rep := bucketValue(i)
		var relErr float64
		if v > 0 {
			relErr = float64(rep-v) / float64(v)
			if relErr < 0 {
				relErr = -relErr
			}
		}
		if v >= 32 && relErr > 1.0/16 {
			t.Errorf("v=%d rep=%d relErr=%.4f", v, rep, relErr)
		}
		if v < 32 && rep != v {
			t.Errorf("small v=%d rep=%d (should be exact)", v, rep)
		}
	}
}

func TestMeterUnits(t *testing.T) {
	e := sim.NewEngine(1)
	var m Meter
	m.Reset(e.Now())
	// 1000 packets of 1250 bytes over 1ms = 1 Mpps, 10 Gbps.
	for i := 0; i < 1000; i++ {
		m.Record(1250)
	}
	now := sim.Millisecond
	if got := m.Mpps(now); got < 0.999 || got > 1.001 {
		t.Fatalf("Mpps = %v", got)
	}
	if got := m.Gbps(now); got < 9.99 || got > 10.01 {
		t.Fatalf("Gbps = %v", got)
	}
}

func TestMeterZeroWindow(t *testing.T) {
	var m Meter
	m.Reset(100)
	m.Record(100)
	if m.Mpps(100) != 0 || m.Gbps(50) != 0 {
		t.Fatal("zero/negative window must yield 0")
	}
}

func TestEWMA(t *testing.T) {
	e := EWMA{Gain: 0.5}
	if e.Update(10) != 10 {
		t.Fatal("first sample should initialise")
	}
	if got := e.Update(20); got != 15 {
		t.Fatalf("got %v, want 15", got)
	}
	if e.Value() != 15 {
		t.Fatal("value mismatch")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("divide by zero")
	}
	if Ratio(1, 4) != 0.25 {
		t.Fatal("ratio")
	}
}

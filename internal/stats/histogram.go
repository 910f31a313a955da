// Package stats provides the measurement primitives used by the CEIO
// benchmarks: log-bucketed latency histograms with tail percentiles,
// throughput meters, exponentially-weighted means, and time-series
// recorders for the dynamic-scenario figures.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram is a log-linear latency histogram in the style of HdrHistogram:
// values are bucketed with bounded relative error (~1/subBuckets), which is
// what tail-latency reporting (P99, P99.9) needs without storing samples.
// Values are int64 (nanoseconds in this codebase). The zero value is ready
// to use.
//
// Bucket counts live in pages, one per power of two (bucket i is slot
// i&31 of page i>>subBucketBits). A page is allocated the first time a
// value lands in it and kept across Reset, so a histogram that is reset
// every measurement window stops allocating once its range is seen, and
// a short-lived histogram pays only for the powers of two it touches.
type Histogram struct {
	pages []*page
	total uint64
	sum   float64
	min   int64 // exact extrema; meaningful only while total > 0
	max   int64
}

const subBucketBits = 5 // 32 sub-buckets per power of two: <=3.1% relative error

// page holds the bucket counts of one power of two.
type page [1 << subBucketBits]uint64

// bucketIndex maps v to a log-linear bucket index.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<subBucketBits {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	top := int(v >> (uint(exp) - subBucketBits)) // in [2^subBucketBits, 2^(subBucketBits+1))
	return (exp-subBucketBits+1)<<subBucketBits + (top - 1<<subBucketBits)
}

// bucketValue returns a representative (upper-mid) value for index i,
// inverse of bucketIndex up to the bucket width.
func bucketValue(i int) int64 {
	if i < 1<<subBucketBits {
		return int64(i)
	}
	exp := i>>subBucketBits + subBucketBits - 1
	sub := i & (1<<subBucketBits - 1)
	low := (int64(1<<subBucketBits) + int64(sub)) << (uint(exp) - subBucketBits)
	width := int64(1) << (uint(exp) - subBucketBits)
	return low + width/2
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	i := bucketIndex(v)
	h.pageAt(i >> subBucketBits)[i&(1<<subBucketBits-1)]++
	h.total++
	h.sum += float64(v)
	if h.total == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// pageAt returns page pg, allocating it on first use.
func (h *Histogram) pageAt(pg int) *page {
	if pg >= len(h.pages) {
		h.pages = append(h.pages, make([]*page, pg+1-len(h.pages))...)
	}
	if h.pages[pg] == nil {
		h.pages[pg] = new(page)
	}
	return h.pages[pg]
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max return exact extrema (not bucketed).
func (h *Histogram) Min() int64 { return h.min }
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns the value at quantile q in [0,1] with the histogram's
// relative error. The exact max is returned for q >= 1.
func (h *Histogram) Percentile(q float64) int64 {
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
	// Walk buckets in index order; slots past bucketIndex(max) are zero.
	var cum uint64
	for pg, counts := range h.pages {
		if counts == nil {
			continue
		}
		for j, c := range counts {
			cum += c
			if c != 0 && cum >= target {
				v := bucketValue(pg<<subBucketBits | j)
				if v < h.min {
					v = h.min
				}
				if v > h.max {
					v = h.max
				}
				return v
			}
		}
	}
	return h.max
}

// P50, P99 and P999 are the percentiles the paper reports.
func (h *Histogram) P50() int64  { return h.Percentile(0.50) }
func (h *Histogram) P99() int64  { return h.Percentile(0.99) }
func (h *Histogram) P999() int64 { return h.Percentile(0.999) }

// Merge folds other into h, page by page.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for pg, counts := range other.pages {
		if counts == nil {
			continue
		}
		dst := h.pageAt(pg)
		for j, c := range counts {
			dst[j] += c
		}
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}

// Reset clears all observations. Pages are zeroed and kept, so refilling
// the same range allocates nothing.
func (h *Histogram) Reset() {
	for _, counts := range h.pages {
		if counts != nil {
			*counts = page{}
		}
	}
	h.total = 0
	h.sum = 0
	h.min, h.max = 0, 0
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d p99.9=%d max=%d",
		h.total, h.Mean(), h.P50(), h.P99(), h.P999(), h.max)
}

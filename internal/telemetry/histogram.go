package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear, like HdrHistogram and the Go
// runtime's internal time histogram. Each power-of-two octave is split
// into 2^histSubBits linear sub-buckets, giving a worst-case quantile
// error of one sub-bucket width (≈ 1/2^histSubBits relative, ~12% at
// 3 sub-bits — in practice well under 10% because estimates use bucket
// midpoints). Values below 2^histSubBits get exact unit buckets.
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits
	// Octaves histSubBits..62 each contribute histSubBuckets buckets on
	// top of the exact small-value buckets (int64 values never reach
	// octave 63).
	histNumBuckets = histSubBuckets + (63-histSubBits)*histSubBuckets
)

// Histogram is a lock-free log-scale latency histogram recording
// nanosecond durations. Create one through Registry.Histogram (the
// zero value's minimum tracking is not initialized).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histNumBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value (nanoseconds). Negative values clamp to 0.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// ObserveDuration records a duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveSince records the time elapsed since start. A nil histogram
// reads no clock.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(0)
}

// Quantile estimates the q'th quantile (0 < q <= 1) in nanoseconds.
// It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		if cum >= target {
			lo, hi := bucketBounds(i)
			est := lo + (hi-lo)/2
			// Clamp to the observed range for accuracy at the tails.
			if mn := h.min.Load(); est < mn {
				est = mn
			}
			if mx := h.max.Load(); est > mx {
				est = mx
			}
			return est
		}
	}
	return h.max.Load()
}

// HistogramStats is a point-in-time summary of a histogram.
type HistogramStats struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
	Mean  int64
	P50   int64
	P95   int64
	P99   int64
}

// Stats summarizes the histogram.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	s := HistogramStats{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Mean = s.Sum / s.Count
	}
	return s
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histSubBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // >= histSubBits
	sub := int((u >> (uint(exp) - histSubBits)) & (histSubBuckets - 1))
	idx := histSubBuckets + (exp-histSubBits)*histSubBuckets + sub
	if idx >= histNumBuckets {
		idx = histNumBuckets - 1
	}
	return idx
}

// bucketBounds returns the half-open value range [lo, hi) of a bucket.
func bucketBounds(i int) (lo, hi int64) {
	if i < histSubBuckets {
		return int64(i), int64(i + 1)
	}
	oct := uint((i-histSubBuckets)/histSubBuckets + histSubBits)
	sub := uint64((i - histSubBuckets) % histSubBuckets)
	width := uint64(1) << (oct - histSubBits)
	ulo := uint64(1)<<oct + sub*width
	uhi := ulo + width
	if ulo > math.MaxInt64 {
		ulo = math.MaxInt64
	}
	if uhi > math.MaxInt64 {
		uhi = math.MaxInt64
	}
	return int64(ulo), int64(uhi)
}

package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, or
// 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// samples collects named per-run values and reduces each to its median.
type samples map[string][]float64

// add records v under name; a nil samples (an untraced run, which
// reports no per-layer metrics) discards it.
func (s samples) add(name string, v float64) {
	if s != nil {
		s[name] = append(s[name], v)
	}
}

// medians reduces every series to its median.
func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, v := range s {
		out[k] = median(v)
	}
	return out
}

// hist is a log-bucketed histogram of positive values with 0.2%
// buckets. Its size is fixed, so recording samples does not grow the
// heap that heap_mib measures.
type hist struct {
	n       int
	buckets [histBuckets]uint32
}

const (
	histMin     = 0.1 // smallest distinguished value; smaller ones share bucket 0
	histGrowth  = 1.002
	histBuckets = 9300 // up to histMin * histGrowth^9300, about 1.1e7
)

func (h *hist) add(v float64) {
	i := 0
	if v > histMin {
		i = int(math.Log(v/histMin) / math.Log(histGrowth))
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i]++
	h.n++
}

// quantile returns the nearest-rank q-quantile, placed within its bucket
// by its rank among the bucket's samples, or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for i, c := range h.buckets {
		if seen+int(c) >= rank {
			within := (float64(rank-seen) - 0.5) / float64(c)
			return histMin * math.Pow(histGrowth, float64(i)+within)
		}
		seen += int(c)
	}
	return 0
}

package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 50}

// summary is an exact order-statistics summary of raw samples.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"` // the percentile Tail reports
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

func rankIndex(n int, p float64) int {
	// The epsilon keeps p·n/100 from rounding up past an exact rank
	// (99.9·10000/100 is 9990.000000000002 in floating point).
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return max(0, min(i, n-1))
}

// tailPercentile is the highest ladder percentile with at least ten
// samples strictly beyond it (p99 from 1000 samples, p99.9 from
// 10000), or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rankIndex(n, p)-1 >= 10 {
			return p
		}
	}
	return 0
}

// summarize sorts a copy of samples and returns their median and tail.
// With fewer than eleven samples the tail is the maximum.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: percentile(s, 50)}
	out.TailPct = tailPercentile(len(s))
	if out.TailPct == 0 {
		out.TailPct = 100
	}
	out.Tail = percentile(s, out.TailPct)
	return out
}

// median of a small slice (the set-up and recovery repetitions).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

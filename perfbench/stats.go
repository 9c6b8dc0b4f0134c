package main

import (
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// sorting xs in place. Empty input yields 0.
func percentile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return sorted(xs, q)
}

// sorted is percentile over an already sorted slice.
func sorted(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(xs) {
		i = len(xs)
	}
	return xs[i-1]
}

// median of a float slice (sorted in place); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// share is num/den, 0 when den is 0.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// medianRounds runs f rounds times and returns the median of its
// per-operation durations in nanoseconds (f returns elapsed time and the
// number of operations it timed).
func medianRounds(rounds int, f func() (time.Duration, int)) float64 {
	xs := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		d, n := f()
		if n > 0 {
			xs = append(xs, float64(d.Nanoseconds())/float64(n))
		}
	}
	return median(xs)
}

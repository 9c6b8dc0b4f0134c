package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds with `le` (less-or-equal) semantics plus an implicit +Inf
// overflow bucket, matching Prometheus histogram conventions. Observe is
// lock-free; Snapshot may run concurrently with writers and sees a
// consistent-enough view (per-bucket counts are individually atomic).
// A nil Histogram ignores observations.
type Histogram struct {
	bounds []float64      // ascending upper bounds, excluding +Inf
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    Gauge // atomic float64 accumulator

	// ex retains per-bucket exemplar rids (see exemplar.go); nil until
	// EnableExemplars.
	ex atomic.Pointer[exemplarStore]
}

// DefLatencyBuckets covers construction latencies from 1µs to 10s, the
// range of everything this repository builds (a container takes tens of
// microseconds; a full simulation can take seconds).
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ExponentialBuckets returns n bucket bounds starting at start, each
// factor times the previous (start > 0, factor > 1, n >= 1).
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n bucket bounds starting at start, spaced width
// apart.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// NewHistogram builds a standalone histogram (registry-free; the registry
// calls this internally). Bounds are copied and sorted ascending.
func NewHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveEx(v, "") }

// ObserveEx records one sample, retaining (rid, v) as the bucket's newest
// exemplar when rid is non-empty and exemplars are enabled. An empty rid
// is a plain Observe — the zero-allocation untraced path.
func (h *Histogram) ObserveEx(v float64, rid string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bound
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if rid != "" {
		if st := h.ex.Load(); st != nil {
			st.add(i, v, rid, time.Now().UnixNano())
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveDurationEx records a duration in seconds with an exemplar rid.
func (h *Histogram) ObserveDurationEx(d time.Duration, rid string) {
	h.ObserveEx(d.Seconds(), rid)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramSnapshot is a point-in-time reading of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // bucket upper bounds (ascending, no +Inf)
	Counts []int64   // per-bucket counts; len(Bounds)+1, last = overflow
	Count  int64
	Sum    float64
}

// Snapshot reads the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns the average observation, or 0 for an empty histogram.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Percentiles estimates the requested percentiles (0..100) from the bucket
// counts via stats.WeightedPercentiles: each bucket contributes its upper
// bound weighted by its count, so estimates are conservative (an estimate
// is the smallest bucket bound at or above the true value). Samples in the
// overflow bucket report +Inf.
func (s HistogramSnapshot) Percentiles(ps ...float64) []float64 {
	values := append(append([]float64(nil), s.Bounds...), math.Inf(1))
	return stats.WeightedPercentiles(values, s.Counts, ps...)
}

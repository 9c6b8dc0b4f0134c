package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file turns the cumulative registry into time series: a
// point-in-time Snapshot of every series, a delta between two snapshots
// (per-interval counts, rates, and interval-local histogram percentiles),
// and a bounded SeriesRing that samples the registry on a fixed interval
// and serves the retained points as /debug/series — the windowed view
// every cumulative-only consumer (dashboards, hhcobs -live, SLO gates) needs.

// RegistrySnapshot is a point-in-time reading of every series in a
// registry, fn-backed series included.
type RegistrySnapshot struct {
	At         time.Time
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot reads every series in the registry at once. Callback-backed
// series are evaluated; histogram buckets are copied, so the result is
// safe to retain.
func (r *Registry) Snapshot() RegistrySnapshot {
	snap := RegistrySnapshot{
		At:         time.Now(),
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.families {
		for ls, s := range f.series {
			name := seriesName(f.name, ls, "")
			switch {
			case s.counter != nil:
				snap.Counters[name] = s.counter.Load()
			case s.counterFn != nil:
				snap.Counters[name] = s.counterFn()
			case s.gauge != nil:
				snap.Gauges[name] = s.gauge.Load()
			case s.gaugeFn != nil:
				snap.Gauges[name] = s.gaugeFn()
			case s.histogram != nil:
				snap.Histograms[name] = s.histogram.Snapshot()
			}
		}
	}
	return snap
}

// HistPoint is one histogram's activity within one interval: the
// observation count and rate, plus mean and percentiles estimated from
// the interval's own bucket deltas (not since-start cumulatives).
type HistPoint struct {
	Count int64   `json:"count"`
	Rate  float64 `json:"rate"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// SeriesPoint is one interval of registry activity: counter deltas and
// rates, instantaneous gauges, and per-interval histogram percentiles.
type SeriesPoint struct {
	At       int64                `json:"at_ns"`  // interval end, unix nanoseconds
	Dur      int64                `json:"dur_ns"` // actual interval length
	Counters map[string]int64     `json:"counters,omitempty"`
	Rates    map[string]float64   `json:"rates,omitempty"`
	Gauges   map[string]float64   `json:"gauges,omitempty"`
	Hists    map[string]HistPoint `json:"hists,omitempty"`
}

// DeltaSince computes the interval point from prev to cur. Series absent
// from prev (registered mid-interval) count from zero; series absent from
// cur are dropped. Counter resets (cur < prev) clamp to zero rather than
// reporting negative rates.
func (cur RegistrySnapshot) DeltaSince(prev RegistrySnapshot) SeriesPoint {
	dur := cur.At.Sub(prev.At)
	secs := dur.Seconds()
	p := SeriesPoint{
		At:       cur.At.UnixNano(),
		Dur:      int64(dur),
		Counters: map[string]int64{},
		Rates:    map[string]float64{},
		Gauges:   map[string]float64{},
		Hists:    map[string]HistPoint{},
	}
	for name, v := range cur.Counters {
		d := v - prev.Counters[name]
		if d < 0 {
			d = 0
		}
		p.Counters[name] = d
		if secs > 0 {
			p.Rates[name] = float64(d) / secs
		}
	}
	for name, v := range cur.Gauges {
		p.Gauges[name] = jsonFloat(v)
	}
	for name, h := range cur.Histograms {
		d := histDelta(prev.Histograms[name], h)
		hp := HistPoint{Count: d.Count, Mean: jsonFloat(d.Mean())}
		if secs > 0 {
			hp.Rate = float64(d.Count) / secs
		}
		if d.Count > 0 {
			qs := d.Percentiles(50, 95, 99)
			hp.P50, hp.P95, hp.P99 = jsonFloat(qs[0]), jsonFloat(qs[1]), jsonFloat(qs[2])
		}
		p.Hists[name] = hp
	}
	return p
}

// histDelta subtracts two cumulative snapshots bucket-wise. A prev with
// mismatched bucket layout (or none at all) counts as empty; a shrinking
// count (reset) clamps to the current snapshot.
func histDelta(prev, cur HistogramSnapshot) HistogramSnapshot {
	if len(prev.Counts) != len(cur.Counts) || cur.Count < prev.Count {
		return cur
	}
	out := HistogramSnapshot{
		Bounds: cur.Bounds,
		Counts: make([]int64, len(cur.Counts)),
		Count:  cur.Count - prev.Count,
		Sum:    cur.Sum - prev.Sum,
	}
	for i := range cur.Counts {
		if d := cur.Counts[i] - prev.Counts[i]; d > 0 {
			out.Counts[i] = d
		}
	}
	return out
}

// Series ring defaults: 120 one-second intervals = two minutes of
// history at dashboard resolution.
const (
	DefaultSeriesInterval = time.Second
	DefaultSeriesCapacity = 120
)

// SeriesRing samples a registry on a fixed interval and retains the last
// capacity interval points in memory. Start launches the sampler
// goroutine; Stop (idempotent) halts it. Sample may also be driven
// manually (tests, end-of-run flushes). All methods are safe for
// concurrent use.
type SeriesRing struct {
	reg      *Registry
	interval time.Duration
	capacity int // ring size, immutable after construction

	mu     sync.Mutex
	points []SeriesPoint    // ring; guarded by mu
	n      int              // live entries; guarded by mu
	next   int              // guarded by mu
	prev   RegistrySnapshot // guarded by mu
	primed bool             // guarded by mu

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewSeriesRing builds a ring sampling reg every interval, retaining
// capacity points (zero values select the defaults).
func NewSeriesRing(reg *Registry, interval time.Duration, capacity int) *SeriesRing {
	if interval <= 0 {
		interval = DefaultSeriesInterval
	}
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &SeriesRing{
		reg:      reg,
		interval: interval,
		capacity: capacity,
		points:   make([]SeriesPoint, capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Interval returns the sampling interval.
func (s *SeriesRing) Interval() time.Duration { return s.interval }

// Start launches the background sampler: the baseline snapshot is primed
// immediately, then every tick appends one interval point.
func (s *SeriesRing) Start() {
	go func() {
		defer close(s.done)
		s.Sample()
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.Sample()
			}
		}
	}()
}

// Stop halts the sampler and waits for it to exit. Safe to call more
// than once, and before Start (the ring is then just never sampled).
func (s *SeriesRing) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	select {
	case <-s.done:
	case <-time.After(s.interval + time.Second):
	}
}

// Sample takes one registry snapshot and appends the delta against the
// previous one. The very first call only primes the baseline.
func (s *SeriesRing) Sample() {
	snap := s.reg.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	// The snapshot is taken outside the lock (it walks the whole
	// registry); a concurrent sampler may have won the lock with a newer
	// one. Appending the stale snapshot would emit an out-of-order point
	// and roll prev backwards, so it is dropped instead.
	if s.primed && !snap.At.After(s.prev.At) {
		return
	}
	if s.primed {
		s.add(snap.DeltaSince(s.prev))
	}
	s.prev, s.primed = snap, true
}

// add appends one interval point to the ring.
//
//hhc:holds mu
func (s *SeriesRing) add(p SeriesPoint) {
	s.points[s.next] = p
	s.next = (s.next + 1) % len(s.points)
	if s.n < len(s.points) {
		s.n++
	}
}

// Points returns the retained interval points oldest-first, at most last
// of them (last <= 0 returns everything retained).
func (s *SeriesRing) Points(last int) []SeriesPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.n
	if last > 0 && last < n {
		n = last
	}
	out := make([]SeriesPoint, 0, n)
	for i := n; i >= 1; i-- {
		out = append(out, s.points[(s.next-i+len(s.points))%len(s.points)])
	}
	return out
}

// SeriesSnapshot is the /debug/series payload: ring geometry, the
// retained points oldest-first, and a per-histogram summary merged over
// those points (count-weighted mean and total-interval rate; percentiles
// here are the mean of the per-interval estimates, a cheap stand-in that
// needs no bucket retention).
type SeriesSnapshot struct {
	IntervalNS int64                `json:"interval_ns"`
	Capacity   int                  `json:"capacity"`
	Points     []SeriesPoint        `json:"points"`
	Summary    map[string]HistPoint `json:"summary,omitempty"`
}

// Snapshot assembles the handler payload over the last `last` points.
func (s *SeriesRing) Snapshot(last int) SeriesSnapshot {
	pts := s.Points(last)
	out := SeriesSnapshot{
		IntervalNS: int64(s.interval),
		Capacity:   s.capacity,
		Points:     pts,
		Summary:    map[string]HistPoint{},
	}
	type agg struct {
		count         int64
		sum           float64 // count-weighted mean accumulator
		secs          float64
		p50, p95, p99 float64
	}
	accs := map[string]*agg{}
	for _, p := range pts {
		for name, hp := range p.Hists {
			a := accs[name]
			if a == nil {
				a = &agg{}
				accs[name] = a
			}
			a.secs += time.Duration(p.Dur).Seconds()
			if hp.Count == 0 {
				continue
			}
			a.count += hp.Count
			a.sum += hp.Mean * float64(hp.Count)
			a.p50 += hp.P50 * float64(hp.Count)
			a.p95 += hp.P95 * float64(hp.Count)
			a.p99 += hp.P99 * float64(hp.Count)
		}
	}
	for name, a := range accs {
		hp := HistPoint{Count: a.count}
		if a.secs > 0 {
			hp.Rate = float64(a.count) / a.secs
		}
		if a.count > 0 {
			hp.Mean = a.sum / float64(a.count)
			hp.P50 = a.p50 / float64(a.count)
			hp.P95 = a.p95 / float64(a.count)
			hp.P99 = a.p99 / float64(a.count)
		}
		out.Summary[name] = hp
	}
	return out
}

// Handler serves the ring as /debug/series: the JSON SeriesSnapshot by
// default (shape pinned by golden file; cmd/hhcobs -live consumes it), a
// human table with ?format=table. ?last=N limits output to the newest N
// points.
func (s *SeriesRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		last := 0
		if v := r.URL.Query().Get("last"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				last = n
			}
		}
		if r.URL.Query().Get("format") == "table" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if last == 0 {
				last = 10
			}
			_ = s.WriteTable(w, last)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteSeriesJSON(w, s.Snapshot(last))
	})
}

// WriteSeriesJSON renders a snapshot as indented JSON, the exact
// /debug/series payload (split out so tests can golden-file it).
func WriteSeriesJSON(w io.Writer, snap SeriesSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// WriteTable renders the last `last` points as a human table: one row per
// series, one column per interval (oldest first) — counter rates, gauge
// values, and histogram interval p99s — plus the merged summary block.
func (s *SeriesRing) WriteTable(w io.Writer, last int) error {
	snap := s.Snapshot(last)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "/debug/series: %d points, interval %s, capacity %d\n",
		len(snap.Points), time.Duration(snap.IntervalNS), snap.Capacity)
	if len(snap.Points) == 0 {
		fmt.Fprintln(bw, "(no complete interval yet)")
		return bw.Flush()
	}

	section := func(title string, names []string, cell func(SeriesPoint, string) (string, bool)) {
		sort.Strings(names)
		if len(names) == 0 {
			return
		}
		fmt.Fprintf(bw, "\n%s (oldest first)\n", title)
		for _, name := range names {
			fmt.Fprintf(bw, "  %-42s", name)
			for _, p := range snap.Points {
				if v, ok := cell(p, name); ok {
					fmt.Fprintf(bw, " %9s", v)
				} else {
					fmt.Fprintf(bw, " %9s", "-")
				}
			}
			fmt.Fprintln(bw)
		}
	}

	section("counter rates (/s)", keysOf(lastPoint(snap.Points).Rates),
		func(p SeriesPoint, name string) (string, bool) {
			v, ok := p.Rates[name]
			return trimFloat(v), ok
		})
	section("gauges", keysOf(lastPoint(snap.Points).Gauges),
		func(p SeriesPoint, name string) (string, bool) {
			v, ok := p.Gauges[name]
			return trimFloat(v), ok
		})
	section("histogram interval p99", keysOf2(lastPoint(snap.Points).Hists),
		func(p SeriesPoint, name string) (string, bool) {
			h, ok := p.Hists[name]
			return trimFloat(h.P99), ok && h.Count > 0
		})

	if len(snap.Summary) > 0 {
		fmt.Fprintf(bw, "\nsummary over %d points\n", len(snap.Points))
		names := make([]string, 0, len(snap.Summary))
		for name := range snap.Summary {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := snap.Summary[name]
			fmt.Fprintf(bw, "  %-42s count=%d rate=%s/s mean=%s p50=%s p95=%s p99=%s\n",
				name, h.Count, trimFloat(h.Rate), trimFloat(h.Mean),
				trimFloat(h.P50), trimFloat(h.P95), trimFloat(h.P99))
		}
	}
	return bw.Flush()
}

func lastPoint(pts []SeriesPoint) SeriesPoint { return pts[len(pts)-1] }

func keysOf[V int64 | float64](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func keysOf2(m map[string]HistPoint) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// trimFloat renders a value compactly for table cells.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 4, 64)
}

package main

import (
	"math"
	"sort"
	"time"
)

// The end-to-end figures of a phase are medians over its sub-windows,
// taken over the quiet windows: those in which the hypervisor stole no
// more CPU time from this machine (/proc/stat steal) than in the median
// window. On a shared host, steal was what moved p99 between runs (windows
// with steal read about twice the p99 of windows without); a change in the
// program shows in quiet windows as much as in any other.

// hostMark is one reading taken during a phase.
type hostMark struct {
	at    int64         // ns from phase start
	cpu   time.Duration // the fleet's CPU time
	steal int64         // host steal, clock ticks summed over CPUs
}

// markEvery is the sampling interval; closed-loop windows are
// marksPerWindow marks long.
const (
	markEvery      = 50 * time.Millisecond
	marksPerWindow = 10
)

// sampler marks the fleet's CPU and the host's steal every markEvery.
type sampler struct {
	f     *fleet
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	marks []hostMark // written by the sampling goroutine until done closes
	err   error      // likewise
}

func (f *fleet) mark(start time.Time) (hostMark, error) {
	cpu, err := f.cpu()
	if err != nil {
		return hostMark{}, err
	}
	st, err := readSteal()
	if err != nil {
		return hostMark{}, err
	}
	return hostMark{at: time.Since(start).Nanoseconds(), cpu: cpu, steal: st}, nil
}

// startSampler takes a first mark at once and then one every markEvery
// until finish.
func (f *fleet) startSampler(start time.Time) (*sampler, error) {
	m, err := f.mark(start)
	if err != nil {
		return nil, err
	}
	s := &sampler{f: f, start: start, stop: make(chan struct{}), done: make(chan struct{}),
		marks: []hostMark{m}}
	go func() {
		defer close(s.done)
		t := time.NewTicker(markEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			m, err := f.mark(start)
			if err != nil {
				s.err = err
				return
			}
			s.marks = append(s.marks, m)
		}
	}()
	return s, nil
}

// finish stops sampling, takes a last mark and returns them all.
func (s *sampler) finish() ([]hostMark, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return nil, s.err
	}
	m, err := s.f.mark(s.start)
	if err != nil {
		return nil, err
	}
	return append(s.marks, m), nil
}

// markAt is the index of the first mark at or after t (the last mark if
// none is).
func markAt(marks []hostMark, t int64) int {
	i := sort.Search(len(marks), func(i int) bool { return marks[i].at >= t })
	return min(i, len(marks)-1)
}

// closedWindows returns, per window of marksPerWindow marks, throughput
// (correct answers/s), fleet CPU µs per completed request, and host steal.
func closedWindows(samples []sample, marks []hostMark) (qps, cpuPerReq []float64, steal []int64) {
	for i := marksPerWindow; i < len(marks); i += marksPerWindow {
		lo, hi := marks[i-marksPerWindow], marks[i]
		var n, ok int64
		for _, s := range samples {
			if s.at >= lo.at && s.at < hi.at {
				n++
				if s.ok {
					ok++
				}
			}
		}
		qps = append(qps, float64(ok)/(float64(hi.at-lo.at)/1e9))
		cpuPerReq = append(cpuPerReq, us((hi.cpu-lo.cpu).Nanoseconds())/float64(max(n, 1)))
		steal = append(steal, hi.steal-lo.steal)
	}
	return qps, cpuPerReq, steal
}

// openWindowsOf splits an open-loop phase into sub-windows of at least
// minOpenSamples requests, so each window's p99 has ten samples beyond it,
// and at least three of hhcd's GC cycles (gcs in the phase), so every
// window sees the same share of collector work. Beyond that, short windows
// are better: a stall spoils fewer of them.
func openWindowsOf(d time.Duration, rate float64, gcs uint64) int {
	n := int(d.Seconds() * rate / minOpenSamples)
	if byGC := int(gcs / 3); byGC > 0 {
		n = min(n, byGC)
	}
	return max(1, n)
}

const minOpenSamples = 1000

// openWindows returns the per-window p50, p90 and p99 of latency from the
// due instant (a failed request counts as missing every latency limit) and
// each window's host steal.
func openWindows(samples []sample, n int, span time.Duration, marks []hostMark) (p50, p90, p99 []float64, steal []int64) {
	per := make([][]int64, n)
	for _, s := range samples {
		i := min(int(s.at*int64(n)/span.Nanoseconds()), n-1)
		lat := s.lat
		if s.rep.a.failed {
			lat = math.MaxInt64
		}
		per[i] = append(per[i], lat)
	}
	for i, xs := range per {
		if len(xs) == 0 {
			continue
		}
		sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
		p50 = append(p50, ms(sorted(xs, 0.5)))
		p90 = append(p90, ms(sorted(xs, 0.9)))
		p99 = append(p99, ms(sorted(xs, 0.99)))
		lo := span.Nanoseconds() * int64(i) / int64(n)
		hi := span.Nanoseconds() * int64(i+1) / int64(n)
		steal = append(steal, marks[markAt(marks, hi)].steal-marks[markAt(marks, lo)].steal)
	}
	return p50, p90, p99, steal
}

// quietMedian is the median of vals over the windows whose steal is at
// most the median window's: every window the hypervisor left alone when
// at least half were, else the quieter half.
func quietMedian(vals []float64, steal []int64) (float64, int) {
	s := append([]int64(nil), steal...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	limit := sorted(s, 0.5)
	var quiet []float64
	for i, v := range vals {
		if steal[i] <= limit {
			quiet = append(quiet, v)
		}
	}
	return median(quiet), len(quiet)
}

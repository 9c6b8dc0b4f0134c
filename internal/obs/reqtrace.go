package obs

import (
	"encoding/json"
	"time"
)

// This file is the flight recorder half of Tracer: it retains the most
// interesting finished request trees — the K slowest, the K most recent
// errored, the K most recent over the slow threshold, and the K most
// recent overall — for /debug/requests, x/net/trace-style.
//
// Ownership rule: a Req and its spans are mutated by one goroutine at a
// time (hand-offs between goroutines must carry a happens-before edge,
// e.g. a channel send). The recorder only ever sees a tree after Finish,
// so snapshots never race with in-flight mutation.

// RequestTrace is one completed request's tree: identity, outcome, and the
// phase spans in start order.
type RequestTrace struct {
	ID    string
	Op    string
	Start int64
	Dur   int64
	Code  string // "" = OK
	Slow  bool   // Dur reached the recorder's slow threshold
	// Origin names the peer a forwarded request came from ("" for direct
	// client traffic). Origin-tagged trees are the owner-side half of a
	// cross-peer trace: stitching joins them to the requester's tree by ID,
	// and the recorder keeps them out of the client-facing slow bucket by
	// default (see RetainForwardedSlow).
	Origin string
	Attrs  []Attr
	Spans  []*Span
}

type requestTraceJSON struct {
	ID     string            `json:"id"`
	Op     string            `json:"op"`
	Start  int64             `json:"start_ns"`
	Dur    int64             `json:"dur_ns"`
	Code   string            `json:"code,omitempty"`
	Slow   bool              `json:"slow,omitempty"`
	Origin string            `json:"origin,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	Spans  []*Span           `json:"spans,omitempty"`
}

// MarshalJSON renders the trace with attrs as a flat object.
func (t *RequestTrace) MarshalJSON() ([]byte, error) {
	return json.Marshal(requestTraceJSON{
		ID: t.ID, Op: t.Op, Start: t.Start, Dur: t.Dur, Code: t.Code,
		Slow: t.Slow, Origin: t.Origin, Attrs: attrMap(t.Attrs), Spans: t.Spans,
	})
}

// UnmarshalJSON parses the wire shape back.
func (t *RequestTrace) UnmarshalJSON(data []byte) error {
	var a requestTraceJSON
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*t = RequestTrace{ID: a.ID, Op: a.Op, Start: a.Start, Dur: a.Dur,
		Code: a.Code, Slow: a.Slow, Origin: a.Origin,
		Attrs: mapAttrs(a.Attrs), Spans: a.Spans}
	return nil
}

// ringBuf retains the last cap(buf) traces, newest overwriting oldest.
type ringBuf struct {
	buf  []*RequestTrace
	n    int // live entries
	next int
}

func newRingBuf(k int) ringBuf { return ringBuf{buf: make([]*RequestTrace, k)} }

func (r *ringBuf) add(tr *RequestTrace) {
	r.buf[r.next] = tr
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// list returns the retained traces newest-first.
func (r *ringBuf) list() []*RequestTrace {
	out := make([]*RequestTrace, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// SetSlowThreshold force-retains requests at least d long in the slow
// bucket (and marks them Slow), regardless of how they rank among the K
// slowest. d <= 0 disables the bucket.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t != nil {
		t.slowNS.Store(int64(d))
	}
}

// RetainForwardedSlow opts forwarded (Origin-tagged) trees into the slow
// bucket. By default they are filtered out: the slow view answers "which
// client requests were slow here", and a forwarded tree's latency is
// already accounted for inside the requester peer's own trace — retaining
// both would double-count every slow cross-peer query.
func (t *Tracer) RetainForwardedSlow(on bool) {
	if t != nil {
		t.fwdSlow.Store(on)
	}
}

// SlowThreshold returns the configured threshold (0 = disabled).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.slowNS.Load())
}

// Record applies the retention policy to one completed trace. Exported so
// offline consumers (cmd/hhcobs) can replay dumped traces through the same
// top-K logic the live recorder uses.
func (t *Tracer) Record(tr *RequestTrace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	t.recent.add(tr)
	if tr.Code != "" {
		t.errored++
		t.errs.add(tr)
	}
	if tr.Slow && (tr.Origin == "" || t.fwdSlow.Load()) {
		t.slow.add(tr)
	}
	// Min-heap of the K slowest: the root is the fastest retained trace.
	if len(t.slowest) < t.k {
		t.slowest = append(t.slowest, tr)
		t.siftUp(len(t.slowest) - 1)
	} else if tr.Dur > t.slowest[0].Dur {
		t.slowest[0] = tr
		t.siftDown(0)
	}
}

// siftUp restores the heap invariant upward from i.
//
//hhc:holds mu
func (t *Tracer) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.slowest[p].Dur <= t.slowest[i].Dur {
			return
		}
		t.slowest[p], t.slowest[i] = t.slowest[i], t.slowest[p]
		i = p
	}
}

// siftDown restores the heap invariant downward from i.
//
//hhc:holds mu
func (t *Tracer) siftDown(i int) {
	n := len(t.slowest)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && t.slowest[l].Dur < t.slowest[min].Dur {
			min = l
		}
		if r < n && t.slowest[r].Dur < t.slowest[min].Dur {
			min = r
		}
		if min == i {
			return
		}
		t.slowest[i], t.slowest[min] = t.slowest[min], t.slowest[i]
		i = min
	}
}

// RequestsSnapshot is the /debug/requests payload: totals plus the four
// retention buckets, each newest- or slowest-first.
type RequestsSnapshot struct {
	Total           int64           `json:"total"`
	Errored         int64           `json:"errored"`
	SlowThresholdNS int64           `json:"slow_threshold_ns,omitempty"`
	Slowest         []*RequestTrace `json:"slowest"`
	Errors          []*RequestTrace `json:"errors"`
	Slow            []*RequestTrace `json:"slow,omitempty"`
	Recent          []*RequestTrace `json:"recent"`
}

// Snapshot reads the recorder. Slowest is ordered slowest-first; the ring
// buckets newest-first. The returned traces are shared (completed trees
// are immutable), the slices fresh.
func (t *Tracer) Snapshot() RequestsSnapshot {
	if t == nil {
		return RequestsSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slowest := append([]*RequestTrace(nil), t.slowest...)
	// Insertion sort is fine at K entries; sort descending by duration.
	for i := 1; i < len(slowest); i++ {
		for j := i; j > 0 && slowest[j].Dur > slowest[j-1].Dur; j-- {
			slowest[j], slowest[j-1] = slowest[j-1], slowest[j]
		}
	}
	return RequestsSnapshot{
		Total:           t.total,
		Errored:         t.errored,
		SlowThresholdNS: t.slowNS.Load(),
		Slowest:         slowest,
		Errors:          t.errs.list(),
		Slow:            t.slow.list(),
		Recent:          t.recent.list(),
	}
}

// Totals reports (requests seen, errored) without copying the buckets.
func (t *Tracer) Totals() (total, errored int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.errored
}

// RetainedCounts reports how many traces each retention bucket currently
// holds, so trace retention is scrapeable instead of only visible by
// dumping /debug/requests.
func (t *Tracer) RetainedCounts() (slowest, errs, slow, recent int) {
	if t == nil {
		return 0, 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.slowest), t.errs.n, t.slow.n, t.recent.n
}

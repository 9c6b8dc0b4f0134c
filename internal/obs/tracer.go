package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"-"`
	Value string `json:"-"`
}

// String builds an Attr (named after the OpenTelemetry helper it mirrors).
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Phase names of a served request's span tree: pathsvc produces them,
// stitching and cmd/hhcobs read them, and the -trace stream carries them
// as flat span names. PhaseRequest names the whole request.
const (
	PhaseRequest     = "request"
	PhaseAdmission   = "admission"
	PhaseQueue       = "queue"
	PhaseExec        = "exec"
	PhaseEncode      = "encode"
	PhaseForward     = "forward"
	PhaseRemoteQueue = "remote_queue"
	PhaseRemoteExec  = "remote_exec"
	PhaseWire        = "wire"
)

// Span is one named phase, possibly with nested children: a root opened
// by Tracer.Start (a flat span is a root with no children), or a phase of
// a request tree. Times are wall-clock unix nanoseconds, durations
// nanoseconds. A Span is mutated by one goroutine at a time; hand-offs
// must carry a happens-before edge (a channel send, a lock).
type Span struct {
	Name     string
	Start    int64
	Dur      int64
	Attrs    []Attr
	Children []*Span

	t     *Tracer // set on roots from Tracer.Start: End counts and streams them
	begin time.Time
}

// spanJSON is the wire shape of a Span; attrs render as a flat object (map
// keys sort, so output is deterministic), and a childless span reads
// {"name":"realize","start_ns":...,"dur_ns":...,"attrs":{"u":"0x2a:3"}}.
type spanJSON struct {
	Name     string            `json:"name"`
	Start    int64             `json:"start_ns"`
	Dur      int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*Span           `json:"children,omitempty"`
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

func mapAttrs(m map[string]string) []Attr {
	if len(m) == 0 {
		return nil
	}
	out := make([]Attr, 0, len(m))
	for k, v := range m {
		out = append(out, Attr{Key: k, Value: v})
	}
	return out
}

// MarshalJSON renders the span with attrs as a flat object.
func (s Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(spanJSON{Name: s.Name, Start: s.Start, Dur: s.Dur,
		Attrs: attrMap(s.Attrs), Children: s.Children})
}

// UnmarshalJSON parses the wire shape back; attr order is not preserved
// (map iteration), so consumers must not rely on it.
func (s *Span) UnmarshalJSON(data []byte) error {
	var a spanJSON
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*s = Span{Name: a.Name, Start: a.Start, Dur: a.Dur,
		Attrs: mapAttrs(a.Attrs), Children: a.Children}
	return nil
}

func newSpan(t *Tracer, name string, attrs []Attr) *Span {
	now := time.Now()
	return &Span{Name: name, Start: now.UnixNano(), Attrs: attrs, t: t, begin: now}
}

// StartChild opens a nested span under s.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(nil, name, attrs)
	s.Children = append(s.Children, c)
	return c
}

// SetAttr annotates an in-flight span.
func (s *Span) SetAttr(key, value string) {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	}
}

// End completes the span. A root from Tracer.Start is then counted and,
// when a sink is attached, streamed with its children; it must not be
// touched afterwards. Safe to call from a different goroutine than the
// span's start as long as a happens-before edge orders the two.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Dur = int64(time.Since(s.begin))
	if s.t != nil {
		s.t.emit(streamItem{span: s}, 1+countSpans(s.Children))
	}
}

func countSpans(spans []*Span) int64 {
	n := int64(len(spans))
	for _, s := range spans {
		n += countSpans(s.Children)
	}
	return n
}

// Tracer is the one tracing sink. Roots opened with Start are flat spans;
// trees opened with StartRequest are served requests, which Finish hands
// to the flight recorder behind /debug/requests (see reqtrace.go). With a
// stream attached (StreamTo, the -trace flag), every completed root and
// every finished request tree is also written as JSON lines. All methods
// are safe for concurrent use and on a nil receiver, so instrumented code
// never branches on whether tracing is enabled.
type Tracer struct {
	spans atomic.Int64 // spans completed, streamed or not

	// smu guards attach/detach of the stream; emit holds it only for a
	// non-blocking channel send, never for encoding.
	smu     sync.Mutex
	out     *streamer // guarded by smu
	dropped int64     // spans lost to a full stream queue (guarded by smu)

	// The flight recorder: request ids, the slow threshold, and the
	// retention buckets.
	k       int
	seq     atomic.Uint64
	slowNS  atomic.Int64
	fwdSlow atomic.Bool // retain Origin-tagged trees in the slow bucket

	mu      sync.Mutex
	total   int64           // requests recorded; guarded by mu
	errored int64           // guarded by mu
	slowest []*RequestTrace // min-heap by Dur: the K slowest ever; guarded by mu
	errs    ringBuf         // K most recent non-OK; guarded by mu
	slow    ringBuf         // K most recent over the slow threshold; guarded by mu
	recent  ringBuf         // K most recent overall; guarded by mu
}

// DefaultRecorderK is the flight recorder's default per-bucket retention.
const DefaultRecorderK = 32

// NewTracer builds a tracer whose flight recorder retains k request trees
// per bucket (k <= 0 selects DefaultRecorderK).
func NewTracer(k int) *Tracer {
	if k <= 0 {
		k = DefaultRecorderK
	}
	return &Tracer{k: k, errs: newRingBuf(k), slow: newRingBuf(k), recent: newRingBuf(k)}
}

// Start opens a root span; End completes it.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return newSpan(t, name, attrs)
}

// SpansTotal returns the number of spans ever completed: every root and
// every span of every finished request tree, streamed or not.
func (t *Tracer) SpansTotal() int64 {
	if t == nil {
		return 0
	}
	return t.spans.Load()
}

// streamQueueDepth bounds the items (roots or request trees) parked
// between a hot path completing them and the drain goroutine encoding
// them. A sink slower than the completion rate overflows the queue and
// loses spans (counted by Dropped) instead of exerting backpressure on
// instrumented code.
const streamQueueDepth = 1024

// streamItem is one queued completion: a root span or a request tree.
type streamItem struct {
	span *Span
	req  *RequestTrace
}

// streamer is one attached JSONL sink: a bounded queue plus the goroutine
// that drains it. Flattening and encoding happen only on the drain
// goroutine, so a slow or blocked writer cannot stall Start/End/Finish on
// any other goroutine.
type streamer struct {
	ch   chan streamItem
	done chan struct{}
	// wmu serializes sink access between the drain goroutine and Flush;
	// no hot path ever takes it.
	wmu   sync.Mutex
	enc   *json.Encoder // guarded by wmu
	flush func() error  // guarded by wmu
}

func (st *streamer) drain() {
	defer close(st.done)
	for it := range st.ch {
		st.wmu.Lock()
		if it.req != nil {
			st.writeRequest(it.req)
		} else {
			st.writeSpan(it.span, nil)
		}
		st.wmu.Unlock()
	}
	st.wmu.Lock()
	defer st.wmu.Unlock()
	if st.flush != nil {
		_ = st.flush()
	}
}

// writeSpan writes s and then its descendants as one flat line each, with
// lead prepended to every line's attrs. A broken sink must not take down
// the instrumented program, so encode errors are dropped.
//
//hhc:holds wmu
func (st *streamer) writeSpan(s *Span, lead []Attr) {
	attrs := s.Attrs
	if len(lead) > 0 {
		attrs = append(append([]Attr(nil), lead...), s.Attrs...)
	}
	_ = st.enc.Encode(Span{Name: s.Name, Start: s.Start, Dur: s.Dur, Attrs: attrs})
	for _, c := range s.Children {
		st.writeSpan(c, lead)
	}
}

// writeRequest flattens a finished tree: a "request" line for the whole
// request (rid, op, the request attrs, and code when not OK), then every
// phase span tagged with the rid, so offline tools can regroup them.
//
//hhc:holds wmu
func (st *streamer) writeRequest(tr *RequestTrace) {
	rid := Attr{Key: "rid", Value: tr.ID}
	attrs := append([]Attr{rid, {Key: "op", Value: tr.Op}}, tr.Attrs...)
	if tr.Code != "" {
		attrs = append(attrs, Attr{Key: "code", Value: tr.Code})
	}
	_ = st.enc.Encode(Span{Name: PhaseRequest, Start: tr.Start, Dur: tr.Dur, Attrs: attrs})
	lead := []Attr{rid}
	for _, s := range tr.Spans {
		st.writeSpan(s, lead)
	}
}

// StreamTo attaches a JSONL sink: every root and request tree completed
// from now on is written, one JSON object per span line, by a dedicated
// drain goroutine, so w need not be concurrency-safe and a blocked w never
// stalls span recording (the bounded queue drops spans instead; see
// Dropped). Pass nil to detach: the call blocks until every queued span is
// written and the sink flushed.
func (t *Tracer) StreamTo(w io.Writer) {
	if t == nil {
		return
	}
	t.smu.Lock()
	old := t.out
	t.out = nil
	t.smu.Unlock()
	if old != nil {
		close(old.ch)
		<-old.done
	}
	if w == nil {
		return
	}
	st := &streamer{
		ch:   make(chan streamItem, streamQueueDepth),
		done: make(chan struct{}),
		enc:  json.NewEncoder(w),
	}
	if f, ok := w.(interface{ Flush() error }); ok {
		st.flush = f.Flush
	}
	go st.drain()
	t.smu.Lock()
	t.out = st
	t.smu.Unlock()
}

// emit counts a completion of n spans and hands it to the stream, if one
// is attached, without blocking: a full queue drops it.
func (t *Tracer) emit(it streamItem, n int64) {
	t.spans.Add(n)
	t.smu.Lock()
	if t.out != nil {
		select {
		case t.out.ch <- it:
		default:
			t.dropped += n
		}
	}
	t.smu.Unlock()
}

// Dropped reports how many spans were lost because the stream sink could
// not keep up. The flight recorder is unaffected by drops.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.smu.Lock()
	defer t.smu.Unlock()
	return t.dropped
}

// Flush waits (briefly, best-effort) for the stream queue to drain and
// flushes the sink if it supports flushing. For a guaranteed full drain,
// detach with StreamTo(nil) instead — that call blocks until every queued
// span is written.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.smu.Lock()
	st := t.out
	t.smu.Unlock()
	if st == nil {
		return nil
	}
	for i := 0; i < 100 && len(st.ch) > 0; i++ {
		time.Sleep(time.Millisecond)
	}
	st.wmu.Lock()
	defer st.wmu.Unlock()
	if st.flush != nil {
		return st.flush()
	}
	return nil
}

// ReadSpans parses a -trace stream: one span per non-blank line. An error
// names the 1-based line it stopped at.
func ReadSpans(r io.Reader) ([]Span, error) {
	var spans []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 1
	for ; sc.Scan(); line++ {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(text, &s); err != nil {
			return nil, fmt.Errorf("%d: not a span line: %w", line, err)
		}
		if s.Name == "" {
			return nil, fmt.Errorf("%d: span has no name", line)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%d: %w", line, err)
	}
	return spans, nil
}

// Req is one in-flight request's tracing handle. A nil Req (from a nil
// Tracer) ignores every call, so serving code never branches on whether
// request tracing is enabled.
type Req struct {
	t     *Tracer
	begin time.Time
	tr    RequestTrace
	// Inline backing for a served request's usual attrs and phase spans,
	// so recording one grows neither slice.
	attrs [4]Attr
	spans [4]*Span
}

// StartRequest opens a request tree. id is the client-supplied
// correlation id; when empty, the tracer assigns "r<seq>". Returns nil on
// a nil receiver — every Req and Span method tolerates that.
func (t *Tracer) StartRequest(op, id string, attrs ...Attr) *Req {
	if t == nil {
		return nil
	}
	if id == "" {
		id = "r" + strconv.FormatUint(t.seq.Add(1), 10)
	}
	now := time.Now()
	q := &Req{t: t, begin: now, tr: RequestTrace{ID: id, Op: op, Start: now.UnixNano()}}
	q.tr.Attrs = append(q.attrs[:0], attrs...)
	q.tr.Spans = q.spans[:0]
	return q
}

// ID returns the request's correlation id ("" on a nil Req).
func (q *Req) ID() string {
	if q == nil {
		return ""
	}
	return q.tr.ID
}

// SetAttr annotates the request itself (endpoints, widths, peers).
func (q *Req) SetAttr(key, value string) {
	if q != nil {
		q.tr.Attrs = append(q.tr.Attrs, Attr{Key: key, Value: value})
	}
}

// SetOrigin marks the request as forwarded from the named peer. The tree
// records the origin both structurally (RequestTrace.Origin, the stitching
// join key) and as a visible attr.
func (q *Req) SetOrigin(peer string) {
	if q == nil || peer == "" {
		return
	}
	q.tr.Origin = peer
	q.tr.Attrs = append(q.tr.Attrs, Attr{Key: "origin", Value: peer})
}

// StartSpan opens a top-level phase span on the request.
func (q *Req) StartSpan(name string, attrs ...Attr) *Span {
	if q == nil {
		return nil
	}
	s := newSpan(nil, name, attrs)
	q.tr.Spans = append(q.tr.Spans, s)
	return s
}

// Finish completes the request with its outcome code ("" = OK), hands the
// tree to the flight recorder, and streams it flattened when a sink is
// attached. The Req must not be used afterwards.
func (q *Req) Finish(code string) {
	if q == nil {
		return
	}
	tr := &q.tr
	tr.Dur = int64(time.Since(q.begin))
	tr.Code = code
	if d := q.t.slowNS.Load(); d > 0 && tr.Dur >= d {
		tr.Slow = true
	}
	q.t.Record(tr)
	q.t.emit(streamItem{req: tr}, 1+countSpans(tr.Spans))
}

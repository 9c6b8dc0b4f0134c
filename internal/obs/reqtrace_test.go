package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

// mkTrace builds a completed trace directly (fixed fields, no clock), the
// way offline consumers replay dumps through Record.
func mkTrace(id string, dur int64, code string) *RequestTrace {
	return &RequestTrace{ID: id, Op: "paths", Start: 1000, Dur: dur, Code: code}
}

func TestRequestTracerSlowestHeap(t *testing.T) {
	rt := NewTracer(3)
	for i, dur := range []int64{50, 10, 90, 30, 70, 20} {
		rt.Record(mkTrace("r"+strconv.Itoa(i), dur, ""))
	}
	snap := rt.Snapshot()
	if snap.Total != 6 || snap.Errored != 0 {
		t.Errorf("totals = %d/%d, want 6/0", snap.Total, snap.Errored)
	}
	var durs []int64
	for _, tr := range snap.Slowest {
		durs = append(durs, tr.Dur)
	}
	if len(durs) != 3 || durs[0] != 90 || durs[1] != 70 || durs[2] != 50 {
		t.Errorf("slowest durations = %v, want [90 70 50]", durs)
	}
	if len(snap.Recent) != 3 || snap.Recent[0].ID != "r5" {
		t.Errorf("recent = %d traces, first %q; want 3, newest r5",
			len(snap.Recent), snap.Recent[0].ID)
	}
}

func TestRequestTracerErrorRing(t *testing.T) {
	rt := NewTracer(2)
	rt.Record(mkTrace("a", 1, "overload"))
	rt.Record(mkTrace("b", 1, ""))
	rt.Record(mkTrace("c", 1, "deadline"))
	rt.Record(mkTrace("d", 1, "internal"))
	snap := rt.Snapshot()
	if snap.Errored != 3 {
		t.Errorf("errored = %d, want 3", snap.Errored)
	}
	if len(snap.Errors) != 2 || snap.Errors[0].ID != "d" || snap.Errors[1].ID != "c" {
		t.Errorf("error ring = %v, want newest-first [d c]", ids(snap.Errors))
	}
}

func TestRequestTracerSlowThreshold(t *testing.T) {
	rt := NewTracer(4)
	rt.SetSlowThreshold(time.Millisecond)
	req := rt.StartRequest("paths", "")
	time.Sleep(2 * time.Millisecond)
	req.Finish("")
	rt.Record(mkTrace("fast", 10, "")) // replayed trace, under threshold

	snap := rt.Snapshot()
	if len(snap.Slow) != 1 || !snap.Slow[0].Slow {
		t.Fatalf("slow bucket = %v, want exactly the over-threshold request", ids(snap.Slow))
	}
	if snap.SlowThresholdNS != int64(time.Millisecond) {
		t.Errorf("snapshot threshold = %d", snap.SlowThresholdNS)
	}
	if rt.SlowThreshold() != time.Millisecond {
		t.Errorf("SlowThreshold = %v", rt.SlowThreshold())
	}
}

func TestStartRequestAssignsIDs(t *testing.T) {
	rt := NewTracer(4)
	q1 := rt.StartRequest("paths", "")
	q2 := rt.StartRequest("paths", "client-7")
	if q1.ID() != "r1" {
		t.Errorf("assigned id = %q, want r1", q1.ID())
	}
	if q2.ID() != "client-7" {
		t.Errorf("client id not passed through: %q", q2.ID())
	}
}

func TestRequestSpanTree(t *testing.T) {
	rt := NewTracer(4)
	q := rt.StartRequest("paths", "t1", String("peer", "unit"))
	q.SetAttr("width", "4")
	admit := q.StartSpan("admission")
	admit.End()
	exec := q.StartSpan("exec")
	child := exec.StartChild("realize", String("pair", "0"))
	child.SetAttr("len", "5")
	child.End()
	exec.End()
	q.Finish("")

	snap := rt.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatal("request not recorded")
	}
	tr := snap.Recent[0]
	if tr.Op != "paths" || tr.Code != "" || tr.Dur <= 0 {
		t.Errorf("trace = %+v", tr)
	}
	if attrString(tr.Attrs) != "peer=unit width=4" {
		t.Errorf("request attrs = %q", attrString(tr.Attrs))
	}
	if len(tr.Spans) != 2 || tr.Spans[0].Name != "admission" || tr.Spans[1].Name != "exec" {
		t.Fatalf("top-level spans = %v", spanNames(tr.Spans))
	}
	kids := tr.Spans[1].Children
	if len(kids) != 1 || kids[0].Name != "realize" ||
		attrString(kids[0].Attrs) != "pair=0 len=5" {
		t.Errorf("child spans wrong: %+v", kids)
	}
}

func TestRequestTraceJSONRoundTrip(t *testing.T) {
	in := &RequestTrace{
		ID: "x", Op: "paths", Start: 5, Dur: 9, Code: "overload", Slow: true,
		Attrs: []Attr{{Key: "k", Value: "v"}},
		Spans: []*Span{{
			Name: "exec", Start: 6, Dur: 3,
			Children: []*Span{{Name: "realize", Start: 7, Dur: 1,
				Attrs: []Attr{{Key: "pair", Value: "0"}}}},
		}},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out RequestTrace
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	back, err := json.Marshal(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, back) {
		t.Errorf("round trip changed the encoding:\n%s\n%s", data, back)
	}
	if !strings.Contains(string(data), `"attrs":{"k":"v"}`) {
		t.Errorf("attrs did not flatten to an object: %s", data)
	}
}

// TestRequestTracerMirror: with a sink attached, Finish streams the tree
// flattened — a request line, then every span depth-first — each line
// tagged with the rid, and the outcome code on the request line.
func TestRequestTracerMirror(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(4)
	tr.StreamTo(&buf)
	q := tr.StartRequest("paths", "m1")
	q.StartSpan("exec").StartChild("realize").End()
	q.Finish("overload")
	tr.StreamTo(nil)

	var spans []Span
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var s Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("line is not a span: %v\n%s", err, line)
		}
		spans = append(spans, s)
	}
	if len(spans) != 3 {
		t.Fatalf("streamed %d flat spans, want 3 (request, exec, realize)", len(spans))
	}
	if spans[0].Name != PhaseRequest {
		t.Errorf("first streamed span = %q, want request", spans[0].Name)
	}
	for _, s := range spans {
		if !hasAttr(s.Attrs, "rid", "m1") {
			t.Errorf("span %q lacks rid=m1: %v", s.Name, s.Attrs)
		}
	}
	if !hasAttr(spans[0].Attrs, "code", "overload") {
		t.Errorf("request span lacks code attr: %v", spans[0].Attrs)
	}
	if got := tr.SpansTotal(); got != 3 {
		t.Errorf("SpansTotal = %d, want 3", got)
	}
}

func TestNilRequestTracerSafe(t *testing.T) {
	var rt *Tracer
	rt.SetSlowThreshold(time.Second)
	if rt.SlowThreshold() != 0 {
		t.Error("nil recorder has a threshold")
	}
	rt.Record(mkTrace("x", 1, ""))
	q := rt.StartRequest("paths", "id")
	if q != nil {
		t.Fatal("nil recorder returned a live Req")
	}
	if q.ID() != "" {
		t.Error("nil Req has an id")
	}
	q.SetAttr("k", "v")
	s := q.StartSpan("phase")
	if s != nil {
		t.Fatal("nil Req returned a live span")
	}
	s.SetAttr("k", "v")
	c := s.StartChild("sub")
	c.End()
	s.End()
	q.Finish("code")
	if snap := rt.Snapshot(); snap.Total != 0 || snap.Slowest != nil {
		t.Errorf("nil snapshot = %+v", snap)
	}
	if total, errored := rt.Totals(); total != 0 || errored != 0 {
		t.Error("nil Totals nonzero")
	}
}

func ids(traces []*RequestTrace) []string {
	out := make([]string, len(traces))
	for i, tr := range traces {
		out[i] = tr.ID
	}
	return out
}

func spanNames(spans []*Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

func hasAttr(attrs []Attr, key, value string) bool {
	for _, a := range attrs {
		if a.Key == key && a.Value == value {
			return true
		}
	}
	return false
}

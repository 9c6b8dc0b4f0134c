package obs

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"process_uptime_seconds",
		"go_goroutines",
		"go_heap_alloc_bytes",
		"go_gc_pause_nanoseconds_total",
		`build_info{go_version="` + runtime.Version() + `"`,
		`goarch="` + runtime.GOARCH + `"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Values must be live, not registration-time snapshots: goroutines and
	// heap are nonzero in any running test binary.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "go_goroutines ") || strings.HasPrefix(line, "go_heap_alloc_bytes ") {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("runtime series reads zero: %q", line)
			}
		}
	}
}

func TestRegisterSelf(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(4)
	RegisterSelf(r, tr, false)
	RegisterSelf(r, tr, true) // adds the recorder series; the rest is idempotent

	tr.Start("a").End()
	tr.Start("b").End()
	tr.StartRequest("op", "").Finish("")
	tr.StartRequest("op", "").Finish("timeout")

	snap := r.Snapshot()
	// Two flat roots plus the two requests' root spans.
	if got := snap.Counters["obs_trace_spans_total"]; got != 4 {
		t.Errorf("obs_trace_spans_total = %d, want 4", got)
	}
	if got := snap.Counters["obs_trace_dropped_total"]; got != 0 {
		t.Errorf("obs_trace_dropped_total = %d, want 0", got)
	}
	if got := snap.Counters["obs_requests_recorded_total"]; got != 2 {
		t.Errorf("obs_requests_recorded_total = %d, want 2", got)
	}
	if got := snap.Counters["obs_requests_errored_total"]; got != 1 {
		t.Errorf("obs_requests_errored_total = %d, want 1", got)
	}
	// Both finished requests sit in the recent ring; the errored one also
	// lands in the errors bucket.
	if got := snap.Gauges[`obs_requests_retained{bucket="recent"}`]; got != 2 {
		t.Errorf("retained recent = %g, want 2", got)
	}
	if got := snap.Gauges[`obs_requests_retained{bucket="errors"}`]; got != 1 {
		t.Errorf("retained errors = %g, want 1", got)
	}

	// Without the recorder flag only the span series appear.
	flat := NewRegistry()
	RegisterSelf(flat, tr, false)
	if _, ok := flat.Snapshot().Counters["obs_requests_recorded_total"]; ok {
		t.Error("recorder series registered without the recorder flag")
	}

	// A nil tracer must register nothing rather than panic.
	empty := NewRegistry()
	RegisterSelf(empty, nil, true)
	if n := len(empty.Snapshot().Counters); n != 0 {
		t.Errorf("nil tracer registered %d counters, want 0", n)
	}
}

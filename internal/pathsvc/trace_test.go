package pathsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestServerTimingFields(t *testing.T) {
	rt := obs.NewTracer(8)
	_, addr := startServer(t, Config{M: 3, Requests: rt})
	c := dial(t, addr)

	resp, err := c.Paths("0x0:0", "0xff:7", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RID == "" {
		t.Error("server assigned no request id with tracing on")
	}
	if resp.ExecNS <= 0 {
		t.Errorf("exec_ns = %d, want > 0", resp.ExecNS)
	}
	if resp.QueueNS < 0 {
		t.Errorf("queue_ns = %d, want >= 0", resp.QueueNS)
	}
	if resp.Coalesced {
		t.Error("lone request reported coalesced")
	}

	// A client-supplied rid is adopted by the trace and echoed back.
	resp, err = c.Do(Request{Op: OpPaths, U: "0x0:0", V: "0x1:0", RID: "cli-42"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RID != "cli-42" {
		t.Errorf("rid = %q, want the client-supplied cli-42", resp.RID)
	}
	// The response is written before the trace is finished: wait for the
	// recorder to hold both requests before inspecting it.
	waitFor(t, "both traces recorded", func() bool { return rt.Snapshot().Total >= 2 })
	found := false
	for _, tr := range rt.Snapshot().Recent {
		if tr.ID == "cli-42" {
			found = true
		}
	}
	if !found {
		t.Error("client-supplied rid absent from the flight recorder")
	}
}

func TestRIDPassThroughWithoutTracer(t *testing.T) {
	_, addr := startServer(t, Config{M: 3})
	c := dial(t, addr)
	resp, err := c.Do(Request{Op: OpPing, RID: "passthru"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RID != "passthru" {
		t.Errorf("rid = %q, want pass-through with tracing off", resp.RID)
	}
}

// TestCoalescedTiming: waiters piggybacked on an in-flight query report
// coalesced with zero queue time and the leader's shared exec time.
func TestCoalescedTiming(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	srv.stallForTest = func() { <-release }

	const dup = 3
	u, v := "0x5:1", "0xa:6"
	results := make(chan *Response, 1+dup)
	for i := 0; i < 1+dup; i++ {
		c := dial(t, addr)
		go func() {
			resp, err := c.Paths(u, v, 0, time.Minute)
			if err != nil {
				t.Errorf("paths: %v", err)
			}
			results <- resp
		}()
	}
	waitFor(t, "duplicates coalesced", func() bool {
		return srv.Counters().Coalesced == dup
	})
	close(release)

	var coalesced int
	for i := 0; i < 1+dup; i++ {
		resp := <-results
		if resp == nil {
			t.Fatal("missing response")
		}
		if resp.Coalesced {
			coalesced++
			if resp.QueueNS != 0 {
				t.Errorf("coalesced response has queue_ns = %d, want 0", resp.QueueNS)
			}
		}
		if resp.ExecNS <= 0 {
			t.Errorf("exec_ns = %d, want the shared construction time", resp.ExecNS)
		}
	}
	if coalesced != dup {
		t.Errorf("%d responses flagged coalesced, want %d", coalesced, dup)
	}
}

// TestRequestTraceRecorded: a served request leaves a span tree covering
// admission, queue wait, execution, and encode in the flight recorder.
func TestRequestTraceRecorded(t *testing.T) {
	rt := obs.NewTracer(8)
	_, addr := startServer(t, Config{M: 3, Requests: rt})
	c := dial(t, addr)
	if _, err := c.Paths("0x0:0", "0xff:7", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(Request{Op: "bogus"}); err == nil {
		t.Fatal("bogus op succeeded")
	}

	waitFor(t, "both traces recorded", func() bool { return rt.Snapshot().Total >= 2 })
	snap := rt.Snapshot()
	if snap.Total != 2 || snap.Errored != 1 {
		t.Fatalf("recorder totals = %d/%d, want 2 requests, 1 errored", snap.Total, snap.Errored)
	}
	var paths *obs.RequestTrace
	for _, tr := range snap.Recent {
		if tr.Op == OpPaths {
			paths = tr
		}
	}
	if paths == nil {
		t.Fatal("no paths trace retained")
	}
	got := map[string]bool{}
	for _, sp := range paths.Spans {
		got[sp.Name] = true
		if sp.Dur < 0 {
			t.Errorf("span %q has negative duration", sp.Name)
		}
	}
	for _, want := range []string{"admission", "queue", "exec", "encode"} {
		if !got[want] {
			t.Errorf("trace lacks %q span (have %v)", want, paths.Spans)
		}
	}
	attrs := map[string]string{}
	for _, a := range paths.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["u"] != "0x0:0" || attrs["v"] != "0xff:7" || attrs["width"] != "4" || attrs["peer"] == "" {
		t.Errorf("trace attrs = %v", attrs)
	}
	if len(snap.Errors) != 1 || snap.Errors[0].Code != CodeBadRequest {
		t.Errorf("errored bucket = %v", snap.Errors)
	}
}

// TestSlowThresholdForceRetains: requests over the -slow threshold land in
// the recorder's slow bucket even when they would not rank among the K
// slowest of a busy server.
func TestSlowThresholdForceRetains(t *testing.T) {
	rt := obs.NewTracer(8)
	rt.SetSlowThreshold(time.Nanosecond) // everything is slow
	_, addr := startServer(t, Config{M: 3, Requests: rt})
	c := dial(t, addr)
	if _, err := c.Paths("0x0:0", "0xff:7", 0, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "trace recorded", func() bool { return rt.Snapshot().Total >= 1 })
	snap := rt.Snapshot()
	if len(snap.Slow) != 1 || !snap.Slow[0].Slow {
		t.Errorf("slow bucket = %v, want the one over-threshold request", snap.Slow)
	}
}

func TestStructuredConnAndFailureLogs(t *testing.T) {
	var buf syncBuffer
	lg := obs.NewLogger(&buf, obs.LevelInfo)
	_, addr := startServer(t, Config{M: 3, Logger: lg})
	c := dial(t, addr)
	if _, err := c.Do(Request{Op: "bogus", RID: "bad-1"}); err == nil {
		t.Fatal("bogus op succeeded")
	}
	c.Close()
	waitFor(t, "conn close logged", func() bool {
		return strings.Contains(buf.String(), "conn close")
	})

	var open, failed bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]string
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		switch rec["msg"] {
		case "conn open":
			open = rec["remote"] != ""
		case "request failed":
			failed = rec["code"] == CodeBadRequest && rec["op"] == "bogus" && rec["rid"] == "bad-1"
		}
	}
	if !open || !failed {
		t.Errorf("missing conn-open or request-failed line:\n%s", buf.String())
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the logger serializes its
// own writes, but tests read while server goroutines still log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestObservedServingHammer drives load, span streaming, flight-recorder
// scrapes, and metric renders concurrently. Its value is under
// `go test -race`: any unsynchronized access between the serving path and
// the observability readers shows up as a data race.
func TestObservedServingHammer(t *testing.T) {
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	rt := obs.NewTracer(16)
	rt.StreamTo(io.Discard)
	defer rt.StreamTo(nil)
	rt.SetSlowThreshold(time.Microsecond)
	lg := obs.NewLogger(io.Discard, obs.LevelInfo)
	_, addr := startServer(t, Config{
		M: 3, Workers: 2, QueueDepth: 16,
		Reg: reg, Logger: lg, Requests: rt,
	})
	debug := httptest.NewServer(rt.Handler())
	defer debug.Close()

	const clients = 4
	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dial(t, addr)
			for i := 0; i < iters; i++ {
				u := fmt.Sprintf("0x%x:%d", (w*13+i)%256, i%8)
				v := fmt.Sprintf("0x%x:%d", (w*29+i*7)%256, (i+3)%8)
				if u == v {
					continue
				}
				if _, err := c.Do(Request{Op: OpPaths, U: u, V: v}); err != nil {
					t.Errorf("paths %s %s: %v", u, v, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		default:
		}
		resp, err := debug.Client().Get(debug.URL + "?format=json")
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.RequestsSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		rt.Snapshot()
	}
	if total, _ := rt.Totals(); total == 0 {
		t.Error("hammer recorded no requests")
	}
}

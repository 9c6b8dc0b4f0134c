package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerStreamJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(8)
	tr.StreamTo(&buf)
	sp := tr.Start("realize", String("u", "0x2a:3"))
	sp.SetAttr("v", "0x07:1")
	sp.End()
	tr.Start("verify").End()
	tr.StreamTo(nil) // block until the drain goroutine wrote everything

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("streamed %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var got struct {
		Name  string            `json:"name"`
		Start int64             `json:"start_ns"`
		Dur   int64             `json:"dur_ns"`
		Attrs map[string]string `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("line is not JSON: %v\n%s", err, lines[0])
	}
	if got.Name != "realize" || got.Start == 0 || got.Dur < 0 {
		t.Errorf("span = %+v", got)
	}
	if got.Attrs["u"] != "0x2a:3" || got.Attrs["v"] != "0x07:1" {
		t.Errorf("attrs = %v, want flat object with u and v", got.Attrs)
	}
}

// TestTracerRootWithChildren: a root from Start may carry children; End
// streams the root first, then each descendant depth-first as its own
// flat line, and counts every one of them.
func TestTracerRootWithChildren(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(0)
	tr.StreamTo(&buf)
	root := tr.Start("batch")
	pair := root.StartChild("pair", String("i", "0"))
	pair.StartChild("realize").End()
	pair.End()
	root.End()
	tr.StreamTo(nil)

	spans, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
		if len(s.Children) != 0 {
			t.Errorf("streamed line %q nests children", s.Name)
		}
	}
	if strings.Join(names, ",") != "batch,pair,realize" {
		t.Errorf("streamed %v, want [batch pair realize]", names)
	}
	if tr.SpansTotal() != 3 {
		t.Errorf("SpansTotal = %d, want 3", tr.SpansTotal())
	}
}

func TestTracerStreamDetach(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(8)
	tr.StreamTo(&buf)
	tr.Start("kept").End()
	tr.StreamTo(nil)
	tr.Start("dropped").End()
	if strings.Contains(buf.String(), "dropped") {
		t.Error("span streamed after detach")
	}
	if tr.SpansTotal() != 2 {
		t.Errorf("SpansTotal = %d after detach, want 2 (counting must not depend on the sink)", tr.SpansTotal())
	}
}

// blockingWriter parks every Write until released, simulating a -trace
// sink on a full pipe or a hung filesystem.
type blockingWriter struct {
	release chan struct{}
	wrote   chan struct{} // closed once the first Write is entered
	once    sync.Once
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.wrote) })
	<-w.release
	return len(p), nil
}

// TestTracerBlockedSinkDoesNotStall is the regression for the streaming
// stall: span completion used to JSON-encode to the sink while holding a
// mutex, so one blocked -trace writer froze every instrumented hot path.
// Now encoding runs on a drain goroutine behind a bounded queue; Start/End
// on other goroutines must complete (dropping overflow spans) while the
// writer is wedged.
func TestTracerBlockedSinkDoesNotStall(t *testing.T) {
	bw := &blockingWriter{release: make(chan struct{}), wrote: make(chan struct{})}
	tr := NewTracer(16)
	tr.StreamTo(bw)
	tr.Start("first").End() // drain goroutine picks it up and wedges in Write
	<-bw.wrote

	// Complete far more spans than the stream queue holds, from another
	// goroutine, with a deadline: if any of them blocks, the test times out
	// here instead of hanging the suite.
	const n = streamQueueDepth + 64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			tr.Start("burst").End()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Start/End stalled behind a blocked stream sink")
	}
	if got := tr.SpansTotal(); got != n+1 {
		t.Errorf("SpansTotal = %d, want %d (every span must be counted)", got, n+1)
	}
	if tr.Dropped() == 0 {
		t.Error("expected overflow spans to be counted as dropped")
	}

	close(bw.release)
	tr.StreamTo(nil) // drains what the queue still holds
	if d := tr.Dropped(); d > n {
		t.Errorf("dropped %d spans, more than the %d recorded", d, n)
	}
}

// TestNilTracerSafe: a nil tracer and the nil Span it returns must
// absorb the whole span API.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.StreamTo(nil)
	sp := tr.Start("x", String("k", "v"))
	sp.SetAttr("k2", "v2")
	sp.StartChild("sub").End()
	sp.End()
	if tr.SpansTotal() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer counted spans")
	}
	if err := tr.Flush(); err != nil {
		t.Error(err)
	}
}

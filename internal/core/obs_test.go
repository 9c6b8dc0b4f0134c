package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/hhc"
	"repro/internal/obs"
)

// withObserver installs a fresh observer for the test and uninstalls it on
// cleanup, so the package-global pointer never leaks across tests. spans
// detaches the tracer's stream and returns every span it carried.
func withObserver(t *testing.T) (o *Observer, reg *obs.Registry, spans func() []obs.Span) {
	t.Helper()
	reg = obs.NewRegistry()
	tr := obs.NewTracer(0)
	var buf bytes.Buffer
	tr.StreamTo(&buf)
	o = NewObserver(reg, tr)
	SetObserver(o)
	t.Cleanup(func() { SetObserver(nil); tr.StreamTo(nil) })
	return o, reg, func() []obs.Span {
		tr.StreamTo(nil)
		ss, err := obs.ReadSpans(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
}

func TestObserverInstrumentsConstruction(t *testing.T) {
	o, _, spans := withObserver(t)
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	u := hhc.Node{X: 0x00, Y: 0}
	same := hhc.Node{X: 0x00, Y: 5}  // same son-cube: only Y differs
	cross := hhc.Node{X: 0xff, Y: 3} // different son-cube
	if _, err := DisjointPathsOpt(g, u, same, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := DisjointPathsOpt(g, u, cross, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := o.SameCube.Count(); got != 1 {
		t.Errorf("same-cube histogram count = %d, want 1", got)
	}
	if got := o.CrossCube.Count(); got != 1 {
		t.Errorf("cross-cube histogram count = %d, want 1", got)
	}
	for name, h := range map[string]*obs.Histogram{
		"derive": o.Derive, "select": o.Select, "realize": o.Realize,
	} {
		if h.Count() != 1 {
			t.Errorf("phase %q count = %d, want 1", name, h.Count())
		}
	}
	// The tracer saw one construct span per call, carrying its kind and
	// endpoints, plus one span per cross-cube phase.
	names := map[string]int{}
	var constructs []map[string]string
	for _, s := range spans() {
		names[s.Name]++
		if s.Name == "construct" {
			attrs := map[string]string{}
			for _, a := range s.Attrs {
				attrs[a.Key] = a.Value
			}
			constructs = append(constructs, attrs)
		}
	}
	if names["construct"] != 2 || names["derive"] != 1 || names["select"] != 1 || names["realize"] != 1 {
		t.Errorf("span names = %v", names)
	}
	want := []map[string]string{
		{"kind": "same-cube", "u": g.FormatNode(u), "v": g.FormatNode(same)},
		{"kind": "cross-cube", "u": g.FormatNode(u), "v": g.FormatNode(cross)},
	}
	if fmt.Sprint(constructs) != fmt.Sprint(want) {
		t.Errorf("construct span attrs = %v, want %v", constructs, want)
	}
}

// TestObserverCountsErrors: a construction that ends in an error is
// counted. No valid input makes a construction fail, so the failure is
// injected at the span's end; the counter is how a construction bug would
// show.
func TestObserverCountsErrors(t *testing.T) {
	o, _, _ := withObserver(t)
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	u := hhc.Node{X: 0x01, Y: 0}
	v := hhc.Node{X: 0x02, Y: 1}
	o.startConstruct(g, u, v).end(errors.New("boom"))
	if got := o.Errors.Load(); got != 1 {
		t.Errorf("error counter = %d, want 1", got)
	}
}

func TestObserverInstrumentsVerify(t *testing.T) {
	o, _, _ := withObserver(t)
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	u := hhc.Node{X: 0x00, Y: 0}
	v := hhc.Node{X: 0x2a, Y: 3}
	paths, err := DisjointPathsOpt(g, u, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDisjoint(g, u, v, paths); err != nil {
		t.Fatal(err)
	}
	if got := o.Verify.Count(); got != 1 {
		t.Errorf("verify histogram count = %d, want 1", got)
	}
}

func TestObserverInstrumentsBatch(t *testing.T) {
	o, _, spans := withObserver(t)
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{
		{U: hhc.Node{X: 0x00, Y: 0}, V: hhc.Node{X: 0xff, Y: 3}},
		{U: hhc.Node{X: 0x01, Y: 1}, V: hhc.Node{X: 0x80, Y: 7}},
		{U: hhc.Node{X: 0x10, Y: 2}, V: hhc.Node{X: 0x10, Y: 6}},
	}
	for _, r := range DisjointPathsBatch(g, pairs, Options{}, 2) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if got := o.BatchItems.Load(); got != int64(len(pairs)) {
		t.Errorf("batch items = %d, want %d", got, len(pairs))
	}
	if got := o.BatchQueueWait.Count(); got != int64(len(pairs)) {
		t.Errorf("queue wait observations = %d, want %d", got, len(pairs))
	}
	if o.BatchBusyNanos.Load() <= 0 {
		t.Error("worker busy time not recorded")
	}
	if got := o.BatchWorkers.Load(); got != 0 {
		t.Errorf("workers gauge = %g after batch, want 0", got)
	}
	found := false
	for _, s := range spans() {
		if s.Name == "batch" {
			found = true
		}
	}
	if !found {
		t.Error("no batch span recorded")
	}
}

// TestNoObserverPathsUnchanged: with instrumentation uninstalled the
// constructor must behave identically (guards the uninstrumented branch).
func TestNoObserverPathsUnchanged(t *testing.T) {
	SetObserver(nil)
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	u := hhc.Node{X: 0x00, Y: 0}
	v := hhc.Node{X: 0xff, Y: 3}
	base, err := DisjointPathsOpt(g, u, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, reg, _ := withObserver(t)
	instrumented, err := DisjointPathsOpt(g, u, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(instrumented) {
		t.Fatalf("container width changed under instrumentation: %d vs %d", len(base), len(instrumented))
	}
	for i := range base {
		for j := range base[i] {
			if base[i][j] != instrumented[i][j] {
				t.Fatalf("path %d differs under instrumentation", i)
			}
		}
	}
	if names := reg.SeriesNames(); len(names) == 0 {
		t.Error("observer registered no series")
	}
}

// TestUninstrumentedAllocIdentity pins the zero-cost-when-off contract at
// the allocation level: with no observer installed, DisjointPathsOpt must
// allocate exactly the same before and after an install/uninstall cycle.
// A hook that leaks cost into the disabled path (a closure that escapes, a
// span allocated before the nil check) shows up as a count change here.
func TestUninstrumentedAllocIdentity(t *testing.T) {
	SetObserver(nil)
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	u := hhc.Node{X: 0x00, Y: 0}
	v := hhc.Node{X: 0xff, Y: 3} // cross-cube: exercises every phase hook
	construct := func() {
		if _, err := DisjointPathsOpt(g, u, v, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	before := testing.AllocsPerRun(50, construct)

	reg := obs.NewRegistry()
	SetObserver(NewObserver(reg, obs.NewTracer(64)))
	construct() // one instrumented run, then back off
	SetObserver(nil)

	after := testing.AllocsPerRun(50, construct)
	if before != after {
		t.Errorf("uninstrumented allocs/op changed across an observer cycle: %.1f -> %.1f", before, after)
	}
}

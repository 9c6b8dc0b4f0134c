package cliutil

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hhc"
)

func TestObsDisabledByDefault(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterObsFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.Enabled() {
		t.Error("enabled with no flags")
	}
	if err := o.Activate(); err != nil {
		t.Fatal(err)
	}
	if o.Registry != nil || o.Tracer != nil {
		t.Error("Activate built sinks while disabled")
	}
	if err := o.Close(os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestObsMetricsAndTraceFiles(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.prom")
	tracePath := filepath.Join(dir, "spans.jsonl")

	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterObsFlags(fs)
	if err := fs.Parse([]string{"-metrics", metricsPath, "-trace", tracePath}); err != nil {
		t.Fatal(err)
	}
	if err := o.Activate(); err != nil {
		t.Fatal(err)
	}
	defer o.Close(nil)
	if core.CurrentObserver() == nil {
		t.Fatal("Activate did not install the core observer")
	}

	// Drive one real construction through the instrumented layer.
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DisjointPaths(g, hhc.Node{X: 0, Y: 0}, hhc.Node{X: 0xff, Y: 3}); err != nil {
		t.Fatal(err)
	}

	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}
	if core.CurrentObserver() != nil {
		t.Error("Close left the observer installed")
	}
	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "core_construct_seconds") {
		t.Errorf("metrics dump missing construction histogram:\n%s", prom)
	}
	spans, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(spans), `"name":"construct"`) {
		t.Errorf("trace file missing construct span:\n%s", spans)
	}
}

// TestObsNoConstructSpansWithoutTrace: with only -listen or -metrics the
// core observer gets no tracer, so a construction builds no spans.
func TestObsNoConstructSpansWithoutTrace(t *testing.T) {
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-listen", "127.0.0.1:0"}, {"-metrics", "-"}} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		o := RegisterObsFlags(fs)
		o.RegisterListenFlag(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := o.Activate(); err != nil {
			t.Fatal(err)
		}
		if co := core.CurrentObserver(); co == nil || co.Tracer != nil {
			t.Errorf("%v: want a core observer without a tracer", args)
		}
		if _, err := core.DisjointPaths(g, hhc.Node{X: 0, Y: 0}, hhc.Node{X: 0xff, Y: 3}); err != nil {
			t.Fatal(err)
		}
		if n := o.Tracer.SpansTotal(); n != 0 {
			t.Errorf("%v: construction completed %d spans, want 0", args, n)
		}
		if err := o.Close(&bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestObsMetricsStdout(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterObsFlags(fs)
	if err := fs.Parse([]string{"-metrics", "-"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Activate(); err != nil {
		t.Fatal(err)
	}
	o.Registry.Counter("demo_total", "").Inc()
	var buf bytes.Buffer
	if err := o.Close(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "demo_total 1") {
		t.Errorf("stdout dump:\n%s", buf.String())
	}
}

func TestStartListenerServesSeries(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterObsFlags(fs)
	o.ListenAddr = "127.0.0.1:0"
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Activate(); err != nil {
		t.Fatal(err)
	}
	defer o.Close(nil)
	o.EnableRequests(0)

	addr, err := o.StartListener("test")
	if err != nil {
		t.Fatal(err)
	}
	if o.Series == nil {
		t.Fatal("StartListener did not build the series ring")
	}
	for _, path := range []string{"/debug/series", "/debug/series?format=table", "/debug/requests"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	// The self-telemetry satellite: activation registers obs_* series so
	// trace loss and recorder retention are visible on /metrics.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"obs_trace_dropped_total",
		"obs_requests_recorded_total",
		`obs_requests_retained{bucket="slowest"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

func TestServeObs(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterObsFlags(fs)
	o.Force = true
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Activate(); err != nil {
		t.Fatal(err)
	}
	defer o.Close(nil)
	o.Registry.Counter("served_total", "").Add(9)

	srv, addr, err := ServeObs("127.0.0.1:0", o.Registry)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "served_total 9") {
		t.Errorf("/metrics over HTTP:\n%s", buf.String())
	}
}

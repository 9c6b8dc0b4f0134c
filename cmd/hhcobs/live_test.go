package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// debugServer assembles a fake hhcd debug surface: a registry with the
// pathsvc metric names, a series ring with one sampled interval (in which
// one request took 12ms), and a flight recorder holding a slow request.
func debugServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Gauge("pathsvc_queue_depth", "").Set(3)
	reg.Gauge("pathsvc_queue_capacity", "").Set(64)
	reg.Gauge("pathsvc_active_workers", "").Set(2)
	reg.Gauge("pathsvc_open_conns", "").Set(4)
	lat := reg.Histogram("pathsvc_request_seconds", "", []float64{0.004, 0.012})

	tr := obs.NewTracer(4)
	obs.RegisterSelf(reg, tr, true)
	q := tr.StartRequest("paths", "req-slow")
	time.Sleep(time.Millisecond)
	q.Finish("")

	ring := obs.NewSeriesRing(reg, time.Second, 8)
	c := reg.Counter("pathsvc_completed_total", "")
	ring.Sample()
	c.Add(55)
	lat.Observe(0.012)
	ring.Sample()

	mux := obs.Mux(reg)
	mux.Handle("/debug/series", ring.Handler())
	mux.Handle("/debug/requests", tr.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// liveOnce renders one -live frame of spec.
func liveOnce(spec string, timeout time.Duration) (string, error) {
	var out bytes.Buffer
	err := runLive(&out, nil, liveOpts{spec: spec, once: true,
		refresh: time.Second, top: 5, timeout: timeout})
	return out.String(), err
}

func TestOnceRendersDashboard(t *testing.T) {
	srv := debugServer(t)
	body, err := liveOnce(strings.TrimPrefix(srv.URL, "http://"), 5*time.Second)
	if err != nil {
		t.Fatalf("-live -once: %v", err)
	}
	for _, want := range []string{
		"hhcobs -live",
		"service   qps ",
		"shed 0/s",
		"queue     depth 3/64",
		"latency   p50 12ms",
		"p99 12ms",
		"pathsvc_completed_total",
		"obs       spans",
		"slowest requests (1 seen, 0 errored)",
		"req-slow",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard lacks %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "\x1b[2J") {
		t.Error("-once frame contains screen-control escapes")
	}
}

// TestServerAgnostic: a registry without the pathsvc set still renders —
// the service section is skipped, generic rates and obs health remain.
func TestServerAgnostic(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewSeriesRing(reg, time.Second, 8)
	c := reg.Counter("sim_steps_total", "")
	ring.Sample()
	c.Add(7)
	ring.Sample()
	mux := obs.Mux(reg)
	mux.Handle("/debug/series", ring.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	body, err := liveOnce(strings.TrimPrefix(srv.URL, "http://"), 5*time.Second)
	if err != nil {
		t.Fatalf("-live -once: %v", err)
	}
	if strings.Contains(body, "service   qps") {
		t.Errorf("service section rendered without pathsvc metrics:\n%s", body)
	}
	if !strings.Contains(body, "sim_steps_total") {
		t.Errorf("generic rates missing:\n%s", body)
	}
}

func TestDeadServerErrors(t *testing.T) {
	_, err := liveOnce("127.0.0.1:1", 500*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "/debug/series") {
		t.Fatalf("got %v, want an actionable poll error", err)
	}
}

func TestParseProm(t *testing.T) {
	in := `# HELP x_total help text
# TYPE x_total counter
x_total 42
depth{q="p99"} 0.5
malformed line without number trailing
`
	m := parseProm(strings.NewReader(in))
	if m["x_total"] != 42 || m[`depth{q="p99"}`] != 0.5 {
		t.Errorf("parseProm = %v", m)
	}
	if _, ok := m["malformed line without number"]; ok {
		t.Error("malformed line parsed")
	}
}

// TestFleetPanel renders the multi-address fleet table against two fake
// peers plus one dead address: live rows carry qps and latency, the dead
// peer stays visible as unreachable.
func TestFleetPanel(t *testing.T) {
	addrA := strings.TrimPrefix(debugServer(t).URL, "http://")
	addrB := strings.TrimPrefix(debugServer(t).URL, "http://")
	dead := "127.0.0.1:1"
	body, err := liveOnce(addrA+","+addrB+","+dead, 2*time.Second)
	if err != nil {
		t.Fatalf("-live fleet -once: %v", err)
	}
	for _, want := range []string{
		"hhcobs -live fleet", "3 peers",
		"peer", "qps", "fwd-out/s",
		addrA, addrB,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet panel lacks %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, dead) || !strings.Contains(body, "unreachable") {
		t.Errorf("dead peer row missing from fleet panel:\n%s", body)
	}
	if strings.Contains(body, "\x1b[2J") {
		t.Error("-once fleet frame contains screen-control escapes")
	}
}

// TestFleetPanelBadSpec pins the flag validation.
func TestFleetPanelBadSpec(t *testing.T) {
	if _, err := liveOnce("a:1,,b:2", time.Second); err == nil {
		t.Fatal("empty peer entry accepted")
	}
	var out bytes.Buffer
	if err := runLive(&out, []string{"x.json"}, liveOpts{spec: "a:1", once: true,
		refresh: time.Second, top: 5, timeout: time.Second}); err == nil {
		t.Error("-live accepted positional files")
	}
	if err := runLive(&out, nil, liveOpts{spec: "a:1", once: true,
		refresh: time.Second, top: 0, timeout: time.Second}); err == nil {
		t.Error("-top 0 accepted")
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRegistrySnapshotDelta(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("req_total", "")
	g := reg.Gauge("depth", "")
	h := reg.Histogram("lat_seconds", "", []float64{0.001, 0.01, 0.1})
	backing := int64(5)
	reg.CounterFunc("cb_total", "", func() int64 { return backing })

	c.Add(10)
	g.Set(3)
	h.Observe(0.0005)
	prev := reg.Snapshot()
	if prev.Counters["req_total"] != 10 || prev.Counters["cb_total"] != 5 {
		t.Fatalf("snapshot counters = %v", prev.Counters)
	}

	c.Add(20)
	backing = 11
	g.Set(7)
	h.Observe(0.05)
	h.Observe(0.05)
	cur := reg.Snapshot()

	// Pin the interval so rates are deterministic.
	prev.At = time.Unix(100, 0)
	cur.At = time.Unix(102, 0)
	p := cur.DeltaSince(prev)
	if p.Counters["req_total"] != 20 || p.Rates["req_total"] != 10 {
		t.Errorf("req_total delta/rate = %d/%g, want 20/10", p.Counters["req_total"], p.Rates["req_total"])
	}
	if p.Counters["cb_total"] != 6 {
		t.Errorf("cb_total delta = %d, want 6", p.Counters["cb_total"])
	}
	if p.Gauges["depth"] != 7 {
		t.Errorf("gauge = %g, want 7", p.Gauges["depth"])
	}
	hp := p.Hists["lat_seconds"]
	if hp.Count != 2 || hp.Rate != 1 {
		t.Errorf("hist count/rate = %d/%g, want 2/1", hp.Count, hp.Rate)
	}
	// Both interval samples landed in the 0.1 bucket: every interval
	// percentile reports that bound, unpolluted by the earlier fast sample.
	if hp.P50 != 0.1 || hp.P99 != 0.1 {
		t.Errorf("interval p50/p99 = %g/%g, want 0.1/0.1", hp.P50, hp.P99)
	}
	if hp.Mean != 0.05 {
		t.Errorf("interval mean = %g, want 0.05", hp.Mean)
	}
}

func TestHistDeltaReset(t *testing.T) {
	cur := HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{3, 0}, Count: 3, Sum: 1.5}
	// A counter reset (cur < prev) must clamp to cur, not go negative.
	prev := HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{9, 0}, Count: 9, Sum: 4}
	if d := histDelta(prev, cur); d.Count != 3 {
		t.Errorf("reset delta count = %d, want 3 (clamped to cur)", d.Count)
	}
	// Mismatched layouts count as no baseline.
	if d := histDelta(HistogramSnapshot{}, cur); d.Count != 3 {
		t.Errorf("no-baseline delta count = %d, want 3", d.Count)
	}
}

func TestSeriesRingSampleAndWrap(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total", "")
	ring := NewSeriesRing(reg, time.Second, 2)

	ring.Sample() // primes only
	if pts := ring.Points(0); len(pts) != 0 {
		t.Fatalf("points after prime = %d, want 0", len(pts))
	}
	c.Add(1)
	ring.Sample()
	c.Add(2)
	ring.Sample()
	c.Add(3)
	ring.Sample() // wraps: capacity 2 keeps the newest two
	pts := ring.Points(0)
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	if pts[0].Counters["x_total"] != 2 || pts[1].Counters["x_total"] != 3 {
		t.Errorf("deltas = %d,%d, want 2,3 (oldest first)",
			pts[0].Counters["x_total"], pts[1].Counters["x_total"])
	}
	if got := ring.Points(1); len(got) != 1 || got[0].Counters["x_total"] != 3 {
		t.Errorf("Points(1) = %v, want just the newest", got)
	}
}

func TestSeriesRingStartStop(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("y_total", "")
	ring := NewSeriesRing(reg, 10*time.Millisecond, 16)
	ring.Start()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.Inc()
		if len(ring.Points(0)) >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ring.Stop()
	ring.Stop() // idempotent
	if len(ring.Points(0)) < 2 {
		t.Fatalf("sampler produced %d points, want >= 2", len(ring.Points(0)))
	}
}

// goldenRing injects fixed interval points, so the /debug/series payload
// is fully deterministic.
func goldenRing() *SeriesRing {
	ring := NewSeriesRing(NewRegistry(), time.Second, 8)
	ring.add(SeriesPoint{
		At: 1700000001000000000, Dur: int64(time.Second),
		Counters: map[string]int64{"pathsvc_admitted_total": 40, "pathsvc_shed_total": 0},
		Rates:    map[string]float64{"pathsvc_admitted_total": 40, "pathsvc_shed_total": 0},
		Gauges:   map[string]float64{"pathsvc_queue_depth": 2},
		Hists: map[string]HistPoint{
			"pathsvc_request_seconds": {Count: 40, Rate: 40, Mean: 0.002, P50: 0.0025, P95: 0.005, P99: 0.005},
		},
	})
	ring.add(SeriesPoint{
		At: 1700000002000000000, Dur: int64(time.Second),
		Counters: map[string]int64{"pathsvc_admitted_total": 120, "pathsvc_shed_total": 15},
		Rates:    map[string]float64{"pathsvc_admitted_total": 120, "pathsvc_shed_total": 15},
		Gauges:   map[string]float64{"pathsvc_queue_depth": 48},
		Hists: map[string]HistPoint{
			"pathsvc_request_seconds": {Count: 120, Rate: 120, Mean: 0.011, P50: 0.01, P95: 0.05, P99: 0.1},
		},
	})
	return ring
}

// TestSeriesJSONGolden pins the /debug/series JSON shape: cmd/hhcobs -live
// and the CI smoke test parse this payload, so drift is an interface break.
func TestSeriesJSONGolden(t *testing.T) {
	srv := httptest.NewServer(goldenRing().Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "series.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("/debug/series JSON drifted from golden file\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}
}

func TestSeriesTable(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/debug/series?format=table", nil)
	goldenRing().Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"2 points, interval 1s",
		"counter rates (/s)",
		"pathsvc_admitted_total",
		"histogram interval p99",
		"summary over 2 points",
		"pathsvc_queue_depth",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("table lacks %q:\n%s", want, body)
		}
	}
	// The summary merges count-weighted: 160 samples over 2s = 80/s.
	if !strings.Contains(body, "count=160 rate=80/s") {
		t.Errorf("summary merge wrong:\n%s", body)
	}
}

func TestSeriesLastParam(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/debug/series?last=1", nil)
	goldenRing().Handler().ServeHTTP(rec, req)
	var snap SeriesSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Points) != 1 || snap.Points[0].At != 1700000002000000000 {
		t.Fatalf("last=1 returned %d points (want the newest only)", len(snap.Points))
	}
	if snap.Summary["pathsvc_request_seconds"].Count != 120 {
		t.Errorf("summary over last=1 count = %d, want 120",
			snap.Summary["pathsvc_request_seconds"].Count)
	}
}

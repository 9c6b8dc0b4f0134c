package obs

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goldenRecorder replays fixed, hand-built traces through the retention
// policy, so the snapshot is fully deterministic.
func goldenRecorder() *Tracer {
	rt := NewTracer(2)
	rt.SetSlowThreshold(time.Millisecond)
	rt.Record(&RequestTrace{
		ID: "r1", Op: "paths", Start: 1700000000000000000, Dur: 250_000,
		Attrs: []Attr{{Key: "peer", Value: "10.0.0.9:41000"}, {Key: "width", Value: "4"}},
		Spans: []*Span{
			{Name: "admission", Start: 1700000000000001000, Dur: 1_000},
			{Name: "exec", Start: 1700000000000002000, Dur: 230_000,
				Children: []*Span{
					{Name: "realize", Start: 1700000000000003000, Dur: 200_000,
						Attrs: []Attr{{Key: "pairs", Value: "4"}}},
				}},
			{Name: "encode", Start: 1700000000000240000, Dur: 9_000},
		},
	})
	rt.Record(&RequestTrace{
		ID: "r2", Op: "paths", Start: 1700000001000000000, Dur: 40_000,
		Code:  "overload",
		Spans: []*Span{{Name: "admission", Start: 1700000001000001000, Dur: 35_000}},
	})
	rt.Record(&RequestTrace{
		ID: "slow-1", Op: "paths", Start: 1700000002000000000, Dur: 2_500_000,
		Slow:  true,
		Spans: []*Span{{Name: "exec", Start: 1700000002000001000, Dur: 2_400_000}},
	})
	return rt
}

// TestRequestsJSONGolden pins the /debug/requests?format=json shape:
// cmd/hhcobs and the CI smoke test parse this payload, so drift is an
// interface break, not a cosmetic change.
func TestRequestsJSONGolden(t *testing.T) {
	srv := httptest.NewServer(goldenRecorder().Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "?format=json")
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

	path := filepath.Join("testdata", "requests.golden")
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
		t.Errorf("/debug/requests JSON drifted from golden file\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}
}

func TestRequestsHTML(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/debug/requests", nil)
	goldenRecorder().Handler().ServeHTTP(rec, req)

	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"3 requests seen, 1 errored",
		"slow threshold 1ms",
		"<h2>Slowest (2)</h2>",
		"<h2>Recent errors (1)</h2>",
		"<h2>Recent slow (1)</h2>",
		"<h2>Recent (2)</h2>",
		"overload",
		"realize",
		"pairs=4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML lacks %q", want)
		}
	}
}

func TestRequestsAcceptHeader(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/debug/requests", nil)
	req.Header.Set("Accept", "application/json")
	goldenRecorder().Handler().ServeHTTP(rec, req)
	if !strings.HasPrefix(strings.TrimSpace(rec.Body.String()), "{") {
		t.Error("Accept: application/json did not select the JSON dump")
	}
}

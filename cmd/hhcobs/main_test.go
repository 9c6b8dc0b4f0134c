package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// writeFile drops content into a temp file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// snapshotFile dumps a recorder with two fixed traces the way
// /debug/requests?format=json would.
func snapshotFile(t *testing.T) string {
	t.Helper()
	rt := obs.NewTracer(4)
	rt.Record(&obs.RequestTrace{
		ID: "r1", Op: "paths", Start: 1000, Dur: 4_000_000,
		Attrs: []obs.Attr{obs.String("u", "0x0:0")},
		Spans: []*obs.Span{
			{Name: "admission", Start: 1000, Dur: 10_000},
			{Name: "exec", Start: 2000, Dur: 3_500_000, Children: []*obs.Span{
				{Name: "realize", Start: 2100, Dur: 3_000_000},
			}},
		},
	})
	rt.Record(&obs.RequestTrace{
		ID: "r2", Op: "paths", Start: 2000, Dur: 1_000_000, Code: "overload",
	})
	payload, err := json.MarshalIndent(rt.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return writeFile(t, "requests.json", string(payload))
}

func TestSnapshotInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{snapshotFile(t)}, 5, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"phase latency (ms)", "admission", "exec", "realize", "request"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	// Slowest-first: r1 (4ms) before r2 (1ms), with r2's outcome code shown.
	if !strings.Contains(text, "1. r1 paths 4.000ms ok") {
		t.Errorf("r1 not ranked slowest:\n%s", text)
	}
	if !strings.Contains(text, "2. r2 paths 1.000ms overload") {
		t.Errorf("r2 outcome missing:\n%s", text)
	}
}

// jsonlFile is a -trace stream excerpt: two requests' flattened spans plus
// one construction span with no rid.
func jsonlFile(t *testing.T) string {
	t.Helper()
	lines := []string{
		`{"name":"request","start_ns":1000,"dur_ns":5000000,"attrs":{"rid":"m1","op":"paths","peer":"unit"}}`,
		`{"name":"exec","start_ns":1100,"dur_ns":4000000,"attrs":{"rid":"m1"}}`,
		`{"name":"request","start_ns":2000,"dur_ns":2000000,"attrs":{"rid":"m2","op":"paths","code":"overload"}}`,
		`{"name":"realize","start_ns":500,"dur_ns":700000,"attrs":{"u":"0x0:0"}}`,
	}
	return writeFile(t, "trace.jsonl", strings.Join(lines, "\n")+"\n")
}

func TestJSONLInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{jsonlFile(t)}, 1, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"request", "exec", "realize"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	// Regrouped by rid, ranked by duration, -top 1 keeps only m1; the
	// overload outcome rides the request span's code attr.
	if !strings.Contains(text, "1. m1 paths 5.000ms ok  [peer=unit]") {
		t.Errorf("rid-tagged spans not regrouped into m1:\n%s", text)
	}
	if strings.Contains(text, "\n  2. ") {
		t.Errorf("-top 1 printed more than one tree:\n%s", text)
	}
}

func TestMixedInputsAndMarkdown(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{snapshotFile(t), jsonlFile(t)}, 3, true); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "| phase") {
		t.Errorf("-md did not render a markdown table:\n%s", text)
	}
	// Both sources rank together: m1 (5ms) beats r1 (4ms).
	if !strings.Contains(text, "1. m1") || !strings.Contains(text, "2. r1") {
		t.Errorf("snapshot and JSONL traces not merged into one ranking:\n%s", text)
	}
}

func TestBadInputs(t *testing.T) {
	if err := run(&bytes.Buffer{}, nil, 5, false); err == nil {
		t.Error("no input files accepted")
	}
	if err := run(&bytes.Buffer{}, []string{jsonlFile(t)}, 0, false); err == nil {
		t.Error("-top 0 accepted")
	}
	empty := writeFile(t, "empty.jsonl", "\n")
	if err := run(&bytes.Buffer{}, []string{empty}, 5, false); err == nil {
		t.Error("empty input accepted")
	}
	junk := writeFile(t, "junk.jsonl", `{"name":"ok","dur_ns":1}`+"\nnot json\n")
	err := run(&bytes.Buffer{}, []string{junk}, 5, false)
	if err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Errorf("junk line error %v does not carry path:line", err)
	}
	if err := run(&bytes.Buffer{}, []string{filepath.Join(t.TempDir(), "missing")}, 5, false); err == nil {
		t.Error("missing file accepted")
	}
}

// TestEndToEndWithRecorder round-trips live instrumentation: a tracer
// records request trees and streams them as JSONL, and hhcobs reads both
// that stream and the recorder's own snapshot dump.
func TestEndToEndWithRecorder(t *testing.T) {
	var stream bytes.Buffer
	rt := obs.NewTracer(4)
	rt.StreamTo(&stream)
	for i := 0; i < 3; i++ {
		q := rt.StartRequest("paths", "", obs.String("peer", "e2e"))
		sp := q.StartSpan("exec")
		sp.End()
		q.Finish("")
	}
	rt.StreamTo(nil) // drain barrier: the stream is complete past here

	snap, err := json.Marshal(rt.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snapPath := writeFile(t, "requests.json", string(snap))
	tracePath := writeFile(t, "trace.jsonl", stream.String())

	for _, paths := range [][]string{{snapPath}, {tracePath}} {
		var out bytes.Buffer
		if err := run(&out, paths, 5, false); err != nil {
			t.Fatalf("%v: %v", paths, err)
		}
		if !strings.Contains(out.String(), "exec") || !strings.Contains(out.String(), "slowest requests") {
			t.Errorf("%v: incomplete report:\n%s", paths, out.String())
		}
		// All three live requests survive into the offline ranking.
		for _, rid := range []string{"r1", "r2", "r3"} {
			if !strings.Contains(out.String(), fmt.Sprintf(" %s paths", rid)) {
				t.Errorf("%v: request %s absent from report:\n%s", paths, rid, out.String())
			}
		}
	}
}

// fakePeer serves the two debug endpoints a -cluster scrape reads, backed
// by a canned recorder snapshot.
func fakePeer(t *testing.T, snap obs.RequestsSnapshot) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(snap); err != nil {
			t.Error(err)
		}
	})
	mux.HandleFunc("/debug/series", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"interval_ns":1000000000,"capacity":60,"points":[],`+
			`"summary":{"pathsvc_request_seconds":{"count":10,"rate":5,"mean":0.002,"p50":0.002,"p95":0.003,"p99":0.004}}}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestClusterScrape stitches a forwarded request across two fake peers:
// the requester's tree (forward span, no origin) joins the owner's
// origin-tagged fragment by rid.
func TestClusterScrape(t *testing.T) {
	ownerSnap := obs.RequestsSnapshot{Total: 1, Recent: []*obs.RequestTrace{{
		ID: "r9", Op: "paths", Start: 5000, Dur: 400_000, Origin: "peer-a:9101",
		Spans: []*obs.Span{
			{Name: "queue", Start: 5100, Dur: 50_000},
			{Name: "exec", Start: 5200, Dur: 300_000},
		},
	}}}
	reqSnap := obs.RequestsSnapshot{Total: 1, Recent: []*obs.RequestTrace{{
		ID: "r9", Op: "paths", Start: 1000, Dur: 900_000,
		Spans: []*obs.Span{
			{Name: "admission", Start: 1000, Dur: 5_000},
			{Name: "forward", Start: 2000, Dur: 700_000},
		},
	}}}
	reqAddr := fakePeer(t, reqSnap)
	ownerAddr := fakePeer(t, ownerSnap)

	var out bytes.Buffer
	err := runCluster(&out, nil, reqAddr+","+ownerAddr, 5, false, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"fleet", "2.000", "4.000", "phase latency (ms)",
		"stitched cross-peer traces (1)",
		"r9  " + reqAddr + " -> " + ownerAddr,
		"remote_queue=50µs", "remote_exec=300µs", "wire=350µs",
		"remote", "forward",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("cluster report lacks %q:\n%s", want, text)
		}
	}
}

// TestClusterScrapeRejectsFiles pins the mode split: -cluster and
// positional inputs are mutually exclusive.
func TestClusterScrapeRejectsFiles(t *testing.T) {
	var out bytes.Buffer
	if err := runCluster(&out, []string{"x.json"}, "h:1", 5, false, time.Second); err == nil {
		t.Fatal("runCluster accepted positional files")
	}
}

package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// Client spans join hhcd's spans by rid; self times and the unattributed
// remainder add up to the client span.
func TestJoinSpans(t *testing.T) {
	hhcdTrace := strings.Join([]string{
		`{"name":"construct","start_ns":1,"dur_ns":999}`,
		`{"name":"request","start_ns":100,"dur_ns":50000,"attrs":{"rid":"b1","op":"paths"}}`,
		`{"name":"admission","start_ns":100,"dur_ns":2000,"attrs":{"rid":"b1"}}`,
		`{"name":"queue","start_ns":2100,"dur_ns":10000,"attrs":{"rid":"b1"}}`,
		`{"name":"exec","start_ns":12100,"dur_ns":30000,"attrs":{"rid":"b1"}}`,
		`{"name":"encode","start_ns":42100,"dur_ns":3000,"attrs":{"rid":"b1"}}`,
		`{"name":"request","start_ns":100,"dur_ns":9000,"attrs":{"rid":"other"}}`,
	}, "\n")
	spans := []clientSpan{{rid: "b1", dur: 80000}, {rid: "b2", dur: 1000}}
	trees, err := loadTraceReaders([]io.Reader{strings.NewReader(hhcdTrace)}, spans)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := trees[0]["other"]; ok {
		t.Error("a rid the generator never sent was kept")
	}
	j := joinSpans(spans, trees)
	if j.clients != 2 || j.matched != 1 {
		t.Fatalf("joined %d of %d, want 1 of 2", j.matched, j.clients)
	}
	want := map[string]int64{"admission": 2000, "queue": 10000, "exec": 30000, "encode": 3000,
		"forward": 0, "server_other": 5000, "client_other": 30000, "unattributed": 35000}
	for name, ns := range want {
		if got := j.p50(name); got != ns {
			t.Errorf("%s p50 = %d ns, want %d", name, got, ns)
		}
	}
	var out bytes.Buffer
	j.print(&out, "hot")
	if !strings.Contains(out.String(), "unattributed") {
		t.Error("phase table omits the unattributed row")
	}
}

// The generator's spans are written in the hhcd -trace format.
func TestWriteClientSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := writeClientSpans(&buf, []clientSpan{{rid: "b7", start: 5, dur: 9}}); err != nil {
		t.Fatal(err)
	}
	trees, err := readServerTrees(&buf, map[string]bool{"b7": true})
	if err != nil {
		t.Fatal(err)
	}
	if trees["b7"] == nil || trees["b7"].phase["client"] != 9 {
		t.Fatalf("round trip lost the client span: %+v", trees["b7"])
	}
}

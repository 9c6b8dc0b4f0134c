package main

import (
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command field may hold spaces and parentheses; utime=250 and
	// stime=50 ticks are fields 14 and 15.
	stat := []byte("4242 (hh cd (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 7 0 100 800000000 5000 18446744073709551615")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 x 2"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseStatSteal(t *testing.T) {
	stat := []byte("cpu  132247 0 27772 295536 160 0 9764 11894 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	got, err := parseStatSteal(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 11894 {
		t.Fatalf("steal = %d, want 11894", got)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3 4 5 6 7\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, err := parseStatSteal([]byte(bad)); err == nil {
			t.Errorf("parseStatSteal(%q) accepted", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\thhcd\nVmPeak:\t  900000 kB\nVmHWM:\t   22016 kB\nVmRSS:\t   20000 kB\n")
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 22016*1024 {
		t.Fatalf("VmHWM = %d", got)
	}
	if _, err := parseVmHWM([]byte("Name:\thhcd\n")); err == nil {
		t.Error("missing VmHWM accepted")
	}
	if _, err := parseVmHWM([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Error("unexpected unit accepted")
	}
}

func TestParseMemStats(t *testing.T) {
	heap := []byte(`heap profile: 1: 2 [3: 4] @ heap/1048576
1: 2 [3: 4] @ 0x1 0x2

# runtime.MemStats
# Alloc = 615880
# TotalAlloc = 9000000
# Mallocs = 3323
# Stack = 327680 / 327680
# PauseNs = [0 0 0]
# NumGC = 7
# GCCPUFraction = 0.001
# DebugGC = false
`)
	got, err := parseMemStats(heap)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{"TotalAlloc": 9000000, "Mallocs": 3323, "NumGC": 7} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
	if _, ok := got["Stack"]; ok {
		t.Error("non-scalar Stack kept")
	}
	if _, err := parseMemStats([]byte("heap profile: 0\n")); err == nil {
		t.Error("text without a MemStats block accepted")
	}
}

func TestParseMetricsDeltas(t *testing.T) {
	before, err := parseMetrics([]byte(`# HELP pathsvc_requests_total requests
# TYPE pathsvc_requests_total counter
pathsvc_requests_total 100
cache_hits_total 40
cluster_peer_forwarded_total{peer="127.0.0.1:9"} 5
go_goroutines 12
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics([]byte(`pathsvc_requests_total 350
cache_hits_total 30
cluster_peer_forwarded_total{peer="127.0.0.1:9"} 9
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := before["go_goroutines"]; ok {
		t.Error("unrelated family kept")
	}
	if d := counterDelta(before, after, "pathsvc_requests_total"); d != 250 {
		t.Errorf("requests delta = %d", d)
	}
	if d := counterDelta(before, after, `cluster_peer_forwarded_total{peer="127.0.0.1:9"}`); d != 4 {
		t.Errorf("labeled delta = %d", d)
	}
	if d := counterDelta(before, after, "cache_hits_total"); d != 0 {
		t.Errorf("reset counter delta = %d, want 0", d)
	}
	if _, err := parseMetrics([]byte("pathsvc_requests_total abc\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// A stall in the server must show in the latency of every request
// scheduled behind it, not only in the stalled one: latency is timed from
// the due instant, and no request is dropped (coordinated-omission guard).
func TestOpenLoopCountsStall(t *testing.T) {
	const (
		rate  = 1000.0 // one request per ms
		n     = 300
		stall = 100 * time.Millisecond
		at    = 50
	)
	send := func(w int, k int64) (int64, reply) {
		if k == at {
			time.Sleep(stall)
		}
		return k, reply{}
	}
	ph, err := runOpen(time.Now(), 1, rate, n, 0, send)
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.samples) != n {
		t.Fatalf("%d samples, want %d: requests were dropped", len(ph.samples), n)
	}
	byK := map[int64]sample{}
	for _, s := range ph.samples {
		byK[s.k] = s
	}
	// Request at+10 was due 10ms after the stall began, so it waited
	// about 90ms for the one worker.
	behind := byK[at+10]
	if behind.lat < 60*time.Millisecond.Nanoseconds() {
		t.Errorf("request queued behind the stall: latency %v, want >= 60ms", time.Duration(behind.lat))
	}
	if behind.late < 60*time.Millisecond.Nanoseconds() {
		t.Errorf("request queued behind the stall: lateness %v, want >= 60ms", time.Duration(behind.late))
	}
	if behind.rtt > 20*time.Millisecond.Nanoseconds() {
		t.Errorf("its own round trip %v should be short", time.Duration(behind.rtt))
	}
	if d := time.Duration(byK[at].lat); d < stall {
		t.Errorf("stalled request latency %v < stall", d)
	}
}

// The closed loop stops issuing at the deadline and tags each sample with
// its completion offset.
func TestClosedLoopWindows(t *testing.T) {
	send := func(w int, k int64) (int64, reply) {
		time.Sleep(time.Millisecond)
		return k, reply{}
	}
	start := time.Now()
	var cursor atomic.Int64
	ph := runClosed(start, 2, 50*time.Millisecond, &cursor, send)
	if len(ph.samples) == 0 {
		t.Fatal("no samples")
	}
	for i := range ph.samples {
		s := &ph.samples[i]
		if s.at <= 0 || s.lat <= 0 {
			t.Fatalf("sample %+v lacks timing", *s)
		}
		s.ok = true
	}
	// Two windows of marksPerWindow marks each over the 50ms run.
	var marks []hostMark
	for i := 0; i <= 2*marksPerWindow; i++ {
		marks = append(marks, hostMark{at: int64(i) * (50 * time.Millisecond).Nanoseconds() / (2 * marksPerWindow),
			cpu: time.Duration(i) * time.Millisecond, steal: int64(i / marksPerWindow)})
	}
	qps, cpu, steal := closedWindows(ph.samples, marks)
	if len(qps) != 2 || len(cpu) != 2 || qps[0] <= 0 || cpu[0] <= 0 {
		t.Fatalf("windows qps=%v cpu=%v", qps, cpu)
	}
	if steal[0] != 1 || steal[1] != 1 {
		t.Fatalf("window steal %v, want [1 1]", steal)
	}
}

// The quiet median drops the windows the hypervisor stole most from.
func TestQuietMedian(t *testing.T) {
	vals := []float64{1, 2, 3, 40, 50}
	got, n := quietMedian(vals, []int64{0, 0, 0, 5, 9})
	if got != 2 || n != 3 {
		t.Fatalf("quiet median %v over %d windows, want 2 over 3", got, n)
	}
	got, n = quietMedian(vals, []int64{4, 1, 2, 7, 9})
	if got != 2 || n != 3 {
		t.Fatalf("noisy run: quiet median %v over %d windows, want 2 over 3 (the quieter half)", got, n)
	}
}

package obs

import (
	"testing"
	"time"
)

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1})
	h.EnableExemplars(2)
	h.ObserveDurationEx(5*time.Millisecond, "r1")  // le=0.01
	h.ObserveDurationEx(50*time.Millisecond, "r2") // le=0.1
	h.ObserveDurationEx(60*time.Millisecond, "r3") // le=0.1
	h.ObserveDurationEx(70*time.Millisecond, "r4") // le=0.1: evicts r2
	h.ObserveDurationEx(2*time.Second, "r5")       // +Inf
	h.ObserveDurationEx(80*time.Millisecond, "")   // untraced: counted, no exemplar

	ex := h.Exemplars()
	byLE := map[string][]string{}
	for _, e := range ex {
		byLE[e.LE] = append(byLE[e.LE], e.RID)
	}
	if got := byLE["0.01"]; len(got) != 1 || got[0] != "r1" {
		t.Errorf("le=0.01 exemplars = %v, want [r1]", got)
	}
	if got := byLE["0.1"]; len(got) != 2 || got[0] != "r4" || got[1] != "r3" {
		t.Errorf("le=0.1 exemplars = %v, want [r4 r3] (newest first, r2 evicted)", got)
	}
	if got := byLE["+Inf"]; len(got) != 1 || got[0] != "r5" {
		t.Errorf("+Inf exemplars = %v, want [r5]", got)
	}
	// The counting path still saw every observation, rid or not, in the
	// same bucket the exemplar was filed under.
	if s := h.Snapshot(); s.Count != 6 || s.Counts[0] != 1 || s.Counts[1] != 4 || s.Counts[2] != 1 {
		t.Errorf("snapshot count=%d buckets=%v, want 6 [1 4 1]", s.Count, s.Counts)
	}
	// A second EnableExemplars keeps the live store and its contents.
	h.EnableExemplars(8)
	if got := len(h.Exemplars()); got != len(ex) {
		t.Errorf("re-enabling changed the retained exemplars: %d, want %d", got, len(ex))
	}
}

func TestHistogramExemplarsDisabled(t *testing.T) {
	h := NewHistogram([]float64{0.01})
	h.ObserveDurationEx(5*time.Millisecond, "r1")
	if ex := h.Exemplars(); ex != nil {
		t.Errorf("exemplars without EnableExemplars = %v, want nil", ex)
	}
	if h.Count() != 1 {
		t.Errorf("count = %d, want 1", h.Count())
	}
	var nilH *Histogram
	nilH.EnableExemplars(2)
	nilH.ObserveDurationEx(time.Millisecond, "r")
	if ex := nilH.Exemplars(); ex != nil {
		t.Errorf("nil histogram exemplars = %v, want nil", ex)
	}
}

// TestWindowRecordZeroAlloc extends the zero-cost discipline to the
// recording path behind every windowed quantile: a rid-tagged observation
// into an exemplar-enabled histogram (the series ring windows its bucket
// deltas) must not allocate, or the v2 serve budget would silently grow.
func TestWindowRecordZeroAlloc(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets)
	h.EnableExemplars(DefaultExemplarK)
	if got := testing.AllocsPerRun(200, func() {
		h.ObserveDurationEx(time.Millisecond, "req-1")
	}); got != 0 {
		t.Errorf("exemplar recording allocates %.1f allocs/op, want 0", got)
	}
}

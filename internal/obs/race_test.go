package obs

import (
	"io"
	"strconv"
	"sync"
	"testing"
)

// TestConcurrentRegistryHammer drives writers, late registrations, and
// snapshot renderers against one registry at once. Its value is under
// `go test -race`: any unsynchronized access between Observe/Inc/Set and
// WritePrometheus/WriteJSON shows up as a data race.
func TestConcurrentRegistryHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "")
	g := r.Gauge("hammer_gauge", "")
	h := r.Histogram("hammer_seconds", "", DefLatencyBuckets)
	tr := NewTracer(64)
	tr.StreamTo(io.Discard) // async drain runs alongside the writers
	rt := NewTracer(8)
	rt.StreamTo(io.Discard)
	lg := NewLogger(io.Discard, LevelInfo)

	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%7) * 1e-5)
				// Late registration: new labeled series appear while
				// renderers iterate the family map.
				r.Counter(`hammer_labeled_total{w="`+strconv.Itoa(id)+`"}`, "").Inc()
				sp := tr.Start("hammer", String("w", strconv.Itoa(id)))
				sp.End()
				q := rt.StartRequest("hammer", "")
				q.StartSpan("phase").End()
				if i%5 == 0 {
					q.Finish("overload")
				} else {
					q.Finish("")
				}
				lg.Info("hammer", String("w", strconv.Itoa(id)))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if got := c.Load(); got != workers*iters {
				t.Errorf("counter = %d, want %d", got, workers*iters)
			}
			if got := h.Count(); got != workers*iters {
				t.Errorf("histogram count = %d, want %d", got, workers*iters)
			}
			if got := tr.SpansTotal(); got < workers*iters {
				t.Errorf("tracer total = %d, want >= %d", got, workers*iters)
			}
			if total, _ := rt.Totals(); total != workers*iters {
				t.Errorf("recorder total = %d, want %d", total, workers*iters)
			}
			tr.StreamTo(nil)
			rt.StreamTo(nil)
			return
		default:
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := r.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
			rt.Snapshot()
		}
	}
}

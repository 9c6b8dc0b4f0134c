package obs

import (
	"io"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestSeriesRingHammer drives a SeriesRing from every direction at once:
// the background sampler, manual Sample calls, Points/Snapshot readers,
// table renderers, and registry writers mutating the metrics being
// sampled. Its value is under `go test -race`: the ring's mu-guarded
// state (points, n, next, prev, primed) and the immutable capacity field
// must never race, including across Stop.
func TestSeriesRingHammer(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ring_hammer_total", "")
	h := reg.Histogram("ring_hammer_seconds", "", DefLatencyBuckets)

	const capacity = 16
	s := NewSeriesRing(reg, time.Millisecond, capacity)
	s.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i%5) * 1e-4)
				switch i % 4 {
				case 0:
					s.Sample() // manual sampling races the background ticker
				case 1:
					s.Points(id + 1)
				case 2:
					snap := s.Snapshot(0)
					if snap.Capacity != capacity {
						t.Errorf("Snapshot capacity = %d, want %d", snap.Capacity, capacity)
						return
					}
				default:
					_ = s.WriteTable(io.Discard, 4)
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Stop()
	s.Stop() // idempotent

	pts := s.Points(0)
	if len(pts) > capacity {
		t.Fatalf("retained %d points, capacity %d", len(pts), capacity)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].At < pts[i-1].At {
			t.Fatalf("points out of order at %d: %d < %d", i, pts[i].At, pts[i-1].At)
		}
	}
	// After Stop the sampler goroutine is gone: the ring must be quiescent.
	before := s.Points(0)
	time.Sleep(5 * time.Millisecond)
	after := s.Points(0)
	if len(before) != len(after) {
		t.Fatalf("ring still sampling after Stop: %d -> %d points", len(before), len(after))
	}
}

// TestWindowConcurrent hammers the one windowed latency path: writers
// record rid-tagged samples into an exemplar-enabled registry histogram
// while the ring's sampler windows its bucket deltas and readers pull
// exemplars and snapshots. Under -race this pins the exemplar store and
// the histogram against the sampler; afterwards the per-interval counts
// must add up to exactly the samples recorded (a ring large enough that
// no interval is evicted).
func TestWindowConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("window_hammer_seconds", "", DefLatencyBuckets)
	h.EnableExemplars(DefaultExemplarK)
	ring := NewSeriesRing(reg, time.Millisecond, 1<<14)
	ring.Sample() // baseline before the first write
	ring.Start()

	const writers, perWriter = 8, 2000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = h.Exemplars()
					_ = h.Snapshot().Count
					_ = ring.Snapshot(10).Summary
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(seed int64) {
			defer ww.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				rid := ""
				if i%16 == 0 {
					rid = "w" + strconv.FormatInt(seed, 10)
				}
				h.ObserveEx(r.Float64(), rid)
			}
		}(int64(w))
	}
	ww.Wait()
	close(stop)
	readers.Wait()
	ring.Stop()
	ring.Sample() // fold in whatever landed after the sampler's last tick

	if got := ring.Snapshot(0).Summary["window_hammer_seconds"].Count; got != writers*perWriter {
		t.Errorf("windowed count = %d, want %d", got, writers*perWriter)
	}
	if len(h.Exemplars()) == 0 {
		t.Error("no exemplars retained from rid-tagged samples")
	}
}

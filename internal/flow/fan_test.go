package flow

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

type fanCase struct {
	src     uint64
	targets []uint64
}

// randomFans draws count fans of 1..k distinct targets in Q_k.
func randomFans(k, count int, seed int64) []fanCase {
	r := rand.New(rand.NewSource(seed))
	n := uint64(1) << uint(k)
	cases := make([]fanCase, count)
	for i := range cases {
		src := r.Uint64() % n
		seen := map[uint64]bool{src: true}
		var targets []uint64
		for len(targets) < 1+r.Intn(k) {
			if v := r.Uint64() % n; !seen[v] {
				seen[v] = true
				targets = append(targets, v)
			}
		}
		cases[i] = fanCase{src, targets}
	}
	return cases
}

func mustFanSolver(t *testing.T, k int) *FanSolver {
	t.Helper()
	s, err := NewFanSolver(cubeGraph(k))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFanSolverConcurrent runs one solver from 8 goroutines: every answer
// must equal the sequential one, and -race must see no shared scratch.
func TestFanSolverConcurrent(t *testing.T) {
	const k = 6
	s := mustFanSolver(t, k)
	cases := randomFans(k, 200, 1)
	want := make([][][]uint64, len(cases))
	for i, c := range cases {
		fan, err := s.Fan(c.src, c.targets)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fan
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range cases {
				i := (j + 25*w) % len(cases)
				fan, err := s.Fan(cases[i].src, cases[i].targets)
				if err != nil || !reflect.DeepEqual(fan, want[i]) {
					errs <- "concurrent fan differs from the sequential one"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestFanSolverScratchAfterError: a failed call must leave the pooled
// scratch clean, so the next call answers exactly as a fresh solver does.
func TestFanSolverScratchAfterError(t *testing.T) {
	const k = 4
	bad := []fanCase{
		{3, []uint64{5, 9, 5}},        // duplicate target
		{3, []uint64{5, 9, 3}},        // target equals source
		{3, []uint64{5, 9, 16}},       // target out of range
		{3, []uint64{1, 2, 4, 8, 15}}, // more targets than Q_4's connectivity
		{16, []uint64{5}},             // source out of range
	}
	s := mustFanSolver(t, k)
	for _, b := range bad {
		for _, good := range randomFans(k, 20, 2) {
			if _, err := s.Fan(b.src, b.targets); err == nil {
				t.Fatalf("Fan(%d, %v): want error", b.src, b.targets)
			}
			var sc *fanScratch
			select {
			case sc = <-s.free:
			default:
				t.Fatalf("after Fan(%d, %v) failed, the solver keeps no idle scratch", b.src, b.targets)
			}
			for v, e := range sc.end {
				if e != 0 {
					t.Fatalf("after Fan(%d, %v) failed, vertex %d is still marked %d", b.src, b.targets, v, e)
				}
			}
			s.free <- sc
			got, err := s.Fan(good.src, good.targets)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mustFanSolver(t, k).Fan(good.src, good.targets)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after Fan(%d, %v) failed, Fan(%d, %v) = %v, fresh solver gives %v",
					b.src, b.targets, good.src, good.targets, got, want)
			}
		}
	}
}

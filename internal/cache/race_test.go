package cache

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hhc"
)

// TestConcurrentHammer drives the cache from many goroutines with heavily
// overlapping pairs — the singleflight, LRU, and counter paths all race
// against each other — and checks every returned container. Run with
// `go test -race` (the CI race job does) to make the detector bite.
func TestConcurrentHammer(t *testing.T) {
	g := mustGraph(t, 3)
	// Tiny capacity keeps eviction racing against lookups.
	c := mustCache(t, g, Options{Shards: 4, Capacity: 32})
	base := gen.Pairs(g, 24, gen.Uniform, 3)
	const workers = 16
	const perWorker = 150
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p := base[(w+i)%len(base)]
				// Interleave translated twins so one entry answers
				// requests from different goroutines.
				shift := uint64(i%4) << 4
				u := hhc.Node{X: p.U.X ^ shift, Y: p.U.Y}
				v := hhc.Node{X: p.V.X ^ shift, Y: p.V.Y}
				paths, err := c.Paths(u, v, core.Options{})
				if err != nil {
					errs <- err
					return
				}
				if err := core.VerifyContainer(g, u, v, paths); err != nil {
					errs <- err
					return
				}
				// Scribble over the result: if any slice were shared
				// with the cache or another caller, later verifies
				// would explode.
				for pi := range paths {
					for ni := range paths[pi] {
						paths[pi][ni] = hhc.Node{X: ^uint64(0), Y: 0xff}
					}
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	if got := snap.Lookups(); got != workers*perWorker {
		t.Fatalf("%d lookups accounted, want %d (%v)", got, workers*perWorker, snap)
	}
}

// TestConcurrentBatch hammers DisjointPathsBatchFunc through the cache
// constructor from several goroutines sharing one workload and verifies
// every batch result.
func TestConcurrentBatch(t *testing.T) {
	g := mustGraph(t, 3)
	c := mustCache(t, g, Options{})
	ps := gen.Pairs(g, 60, gen.CrossCube, 11)
	reqs := make([]core.Pair, len(ps))
	for i, p := range ps {
		reqs[i] = core.Pair{U: p.U, V: p.V}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results := core.DisjointPathsBatchFunc(g, reqs, core.Options{}, 4, c.Constructor())
			errs <- core.BatchVerify(g, results)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSingleflightDistinctSlices: goroutines requesting the same pair at
// the same time must never receive aliased backing arrays, even when they
// coalesce onto one in-flight construction.
func TestSingleflightDistinctSlices(t *testing.T) {
	g := mustGraph(t, 4)
	u, v := hhc.Node{X: 0x0001, Y: 2}, hhc.Node{X: 0xbeef, Y: 7}
	for round := 0; round < 20; round++ {
		c := mustCache(t, g, Options{}) // fresh cache: every round races the first build
		const callers = 8
		results := make([][][]hhc.Node, callers)
		var start, wg sync.WaitGroup
		start.Add(1)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				start.Wait()
				paths, err := c.Paths(u, v, core.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = paths
			}(i)
		}
		start.Done()
		wg.Wait()
		for i := 0; i < callers; i++ {
			for j := i + 1; j < callers; j++ {
				if results[i] == nil || results[j] == nil {
					t.Fatal("missing result")
				}
				for pi := range results[i] {
					a := reflect.ValueOf(results[i][pi]).Pointer()
					b := reflect.ValueOf(results[j][pi]).Pointer()
					if a == b {
						t.Fatalf("round %d: callers %d and %d share path %d backing array", round, i, j, pi)
					}
				}
			}
		}
		// All callers must have been served the same container value.
		for i := 1; i < callers; i++ {
			if !reflect.DeepEqual(results[0], results[i]) {
				t.Fatalf("round %d: caller %d got a different container", round, i)
			}
		}
		snap := c.Snapshot()
		if snap.Misses != 1 {
			t.Fatalf("round %d: %d constructions for one pair (%v)", round, snap.Misses, snap)
		}
	}
}

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hhc"
)

// Batch construction: the per-pair work is small (tens of microseconds) but
// evaluation workloads construct containers for thousands of pairs —
// embarrassingly parallel, read-only over the topology handle. BatchResult
// keeps per-pair errors so one bad request never poisons a sweep.

// Pair is a batch request.
type Pair struct {
	U, V hhc.Node
}

// BatchResult is one batch outcome.
type BatchResult struct {
	Pair  Pair
	Paths [][]hhc.Node
	Err   error
}

// Constructor is the signature shared by DisjointPathsOpt and by memoizing
// front-ends (internal/cache): anything that produces an (m+1)-wide
// container for a pair. Batch helpers accept one so callers can swap the
// direct construction for a cached one without a dependency cycle.
type Constructor func(g *hhc.Graph, u, v hhc.Node, opt Options) ([][]hhc.Node, error)

// DisjointPathsBatch constructs containers for every pair concurrently
// using up to workers goroutines (workers <= 0 selects GOMAXPROCS).
// Results are index-aligned with pairs.
func DisjointPathsBatch(g *hhc.Graph, pairs []Pair, opt Options, workers int) []BatchResult {
	return DisjointPathsBatchFunc(g, pairs, opt, workers, DisjointPathsOpt)
}

// DisjointPathsBatchFunc is DisjointPathsBatch with an explicit constructor;
// construct must be safe for concurrent use.
func DisjointPathsBatchFunc(g *hhc.Graph, pairs []Pair, opt Options, workers int, construct Constructor) []BatchResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	results := make([]BatchResult, len(pairs))
	if len(pairs) == 0 {
		return results
	}
	b := observer.Load().startBatch(len(pairs), workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			b.workerEnter()
			defer b.workerExit()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				p := pairs[i]
				pickup := b.startItem()
				paths, err := construct(g, p.U, p.V, opt)
				b.endItem(pickup)
				results[i] = BatchResult{Pair: p, Paths: paths, Err: err}
			}
		}()
	}
	wg.Wait()
	b.end()
	return results
}

// BatchVerify verifies every successful batch result and returns the first
// failure, if any. Intended for harnesses and tests; the construction is
// deterministic, so production callers can skip it.
func BatchVerify(g *hhc.Graph, results []BatchResult) error {
	for i, r := range results {
		if r.Err != nil {
			continue
		}
		if err := VerifyContainer(g, r.Pair.U, r.Pair.V, r.Paths); err != nil {
			return fmt.Errorf("core: batch item %d (%s -> %s): %w", i, g.FormatNode(r.Pair.U), g.FormatNode(r.Pair.V), err)
		}
	}
	return nil
}

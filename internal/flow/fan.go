package flow

import (
	"fmt"
	"runtime"

	"repro/internal/graph"
)

// FanSolver finds vertex-disjoint fans in one graph. It builds the graph's
// split network once, plus a super-sink; each Fan call runs min-cost flow
// on a copy of it in pooled scratch memory, so one solver serves any number
// of concurrent callers.
type FanSolver struct {
	order int64
	tmpl  *Network // split network of the graph; vertex 2·order is the super-sink
	split []int32  // split[v] is the ID of v's split edge in tmpl
	// free pools idle scratch, one per processor at most. Unlike a
	// sync.Pool it keeps its scratch across garbage collections and never
	// drops it at random (a sync.Pool does under -race), so every call
	// allocates the same: only its answer.
	free chan *fanScratch
}

// fanScratch is one Fan call's working memory.
type fanScratch struct {
	nw   Network
	spfa spfaScratch
	// end[v] is 1 + the index of v among the call's targets, 0 for every
	// vertex that is not one. Fan clears it before the scratch goes back.
	end []int32
}

// NewFanSolver builds the fan solver of g.
func NewFanSolver(g graph.Graph) (*FanSolver, error) {
	n := g.Order()
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: fan wants order <= 2^20, have %d", graph.ErrTooLarge, n)
	}
	tmpl, split, err := splitNetwork(g, 1)
	if err != nil {
		return nil, err
	}
	return &FanSolver{
		order: n, tmpl: tmpl, split: split,
		free: make(chan *fanScratch, runtime.GOMAXPROCS(0)),
	}, nil
}

// VertexDisjointFan returns len(targets) paths from src to each target,
// pairwise sharing no vertex except src, and such that no path passes
// through another target. The family minimizes total length (min-cost flow).
// Returned paths are ordered to match targets. Targets must be distinct
// vertices of g different from src; an error is returned if no full fan
// exists (by the fan lemma one always exists when the graph is
// len(targets)-connected). To solve many fans in one graph, keep a
// FanSolver.
func VertexDisjointFan(g graph.Graph, src uint64, targets []uint64) ([][]uint64, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	s, err := NewFanSolver(g)
	if err != nil {
		return nil, err
	}
	return s.Fan(src, targets)
}

// Fan is VertexDisjointFan on the solver's graph.
func (s *FanSolver) Fan(src uint64, targets []uint64) ([][]uint64, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	if src >= uint64(s.order) {
		return nil, fmt.Errorf("flow: fan source %d out of range [0,%d)", src, s.order)
	}
	var sc *fanScratch
	select {
	case sc = <-s.free:
	default:
		sc = &fanScratch{end: make([]int32, s.order)}
	}
	paths, err := s.fan(sc, src, targets)
	for _, t := range targets {
		if t < uint64(s.order) {
			sc.end[t] = 0
		}
	}
	select {
	case s.free <- sc:
	default: // as many callers as processors hold scratch already
	}
	return paths, err
}

func (s *FanSolver) fan(sc *fanScratch, src uint64, targets []uint64) ([][]uint64, error) {
	for i, t := range targets {
		switch {
		case t >= uint64(s.order):
			return nil, fmt.Errorf("flow: fan target %d out of range [0,%d)", t, s.order)
		case t == src:
			return nil, fmt.Errorf("flow: fan target equals source %d", src)
		case sc.end[t] != 0:
			return nil, fmt.Errorf("flow: duplicate fan target %d", t)
		}
		sc.end[t] = int32(i + 1)
	}
	nw := &sc.nw
	nw.copyFrom(s.tmpl)
	nw.cap[s.split[src]] = unbounded
	// Super-sink collecting one unit from each target's OUT-side. A full fan
	// saturates every out(t)->super edge, which consumes each target's unit
	// vertex capacity on termination — so no other path can pass through a
	// target, giving the strong fan property (paths meet the target set only
	// at their own endpoints).
	super := int32(2 * s.order)
	for _, t := range targets {
		nw.AddEdge(int32(2*t+1), super, 1, 0)
	}
	k := int32(len(targets))
	got, cost := nw.minCostFlow(int32(2*src+1), super, k, &sc.spfa)
	if got != k {
		return nil, fmt.Errorf("flow: fan from %d to %d targets: only %d disjoint paths exist", src, k, got)
	}
	// Walk each unit of flow from src. Together the paths have cost edges
	// and cost+k vertices, so they share one backing array of that size.
	all := make([]uint64, 0, int(cost+k))
	out := make([][]uint64, k)
	for range targets {
		start := len(all)
		all = append(all, src)
		v := src
		for sc.end[v] == 0 {
			e := nw.takeFlowEdge(v)
			if e == -1 {
				return nil, fmt.Errorf("flow: fan decomposition stalled at vertex %d", v)
			}
			v = uint64(nw.to[e]) / 2
			all = append(all, v)
		}
		i := sc.end[v] - 1
		if out[i] != nil {
			return nil, fmt.Errorf("flow: fan decomposition reached target %d twice", v)
		}
		out[i] = all[start:len(all):len(all)]
	}
	return out, nil
}

// copyFrom makes nw a copy of src, reusing nw's memory.
func (nw *Network) copyFrom(src *Network) {
	nw.n = src.n
	nw.first = append(nw.first[:0], src.first...)
	nw.next = append(nw.next[:0], src.next...)
	nw.to = append(nw.to[:0], src.to...)
	nw.cap = append(nw.cap[:0], src.cap...)
	nw.cost = append(nw.cost[:0], src.cost...)
}

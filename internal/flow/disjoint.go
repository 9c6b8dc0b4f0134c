package flow

import (
	"fmt"

	"repro/internal/graph"
)

// unbounded is the split capacity of a vertex that any number of paths may
// share: a path family's source and sink.
const unbounded = int32(1 << 30)

// splitNetwork builds the node-split transformation of g: every vertex v
// becomes in(v)=2v and out(v)=2v+1 joined by a unit-capacity edge, and every
// undirected edge {u,v} becomes out(u)->in(v) and out(v)->in(u) with unit
// capacity. Edge costs are 1 on adjacency edges and 0 on split edges so that
// min-cost solutions minimize total path length. extra more vertices,
// numbered from 2·g.Order(), start with no edges. split[v] is the ID of v's
// split edge, so callers can lift the capacity of the vertices they route
// from or to.
func splitNetwork(g graph.Graph, extra int) (nw *Network, split []int32, err error) {
	n := g.Order()
	if n > graph.MaxDenseOrder/2 {
		return nil, nil, fmt.Errorf("%w: order %d", graph.ErrTooLarge, n)
	}
	nw = NewNetwork(int(2*n) + extra)
	split = make([]int32, n)
	buf := make([]uint64, 0, g.MaxDegree())
	for v := int64(0); v < n; v++ {
		split[v] = int32(nw.AddEdge(int32(2*v), int32(2*v+1), 1, 0))
		buf = g.Neighbors(uint64(v), buf[:0])
		for _, w := range buf {
			nw.AddEdge(int32(2*v+1), int32(2*uint64(w)), 1, 1)
		}
	}
	return nw, split, nil
}

// pairNetwork is the split network of g with s and t unbounded, for s-t
// path families. s and t must be distinct vertices of g.
func pairNetwork(g graph.Graph, s, t uint64) (*Network, error) {
	if s == t {
		return nil, fmt.Errorf("flow: source equals target (%d)", s)
	}
	if int64(s) >= g.Order() || int64(t) >= g.Order() {
		return nil, fmt.Errorf("flow: vertex out of range [0,%d)", g.Order())
	}
	nw, split, err := splitNetwork(g, 0)
	if err != nil {
		return nil, err
	}
	nw.cap[split[s]], nw.cap[split[t]] = unbounded, unbounded
	return nw, nil
}

// takeFlowEdge returns the first adjacency edge out of out(v) that carries
// flow no earlier walk has taken, and marks it taken by clearing its flow;
// -1 if there is none. Walking a unit flow with it from the source, one
// call per hop, decomposes the flow into paths.
func (nw *Network) takeFlowEdge(v uint64) int32 {
	for e := nw.first[2*v+1]; e != -1; e = nw.next[e] {
		// Even IDs are forward edges; cost 1 marks an adjacency edge.
		if e%2 == 0 && nw.cap[e^1] > 0 && nw.cost[e] > 0 {
			nw.cap[e^1] = 0
			return e
		}
	}
	return -1
}

// extractPaths decomposes a unit flow on a split network into vertex paths
// from s to t (original vertex IDs). Each unit of flow yields one path.
func extractPaths(nw *Network, s, t uint64, units int) [][]uint64 {
	paths := make([][]uint64, 0, units)
	for p := 0; p < units; p++ {
		path := []uint64{s}
		for v := s; v != t; {
			e := nw.takeFlowEdge(v)
			if e == -1 {
				break
			}
			v = uint64(nw.to[e]) / 2 // in(v) -> original ID
			path = append(path, v)
		}
		if len(path) > 1 && path[len(path)-1] == t {
			paths = append(paths, path)
		}
	}
	return paths
}

// VertexDisjointPaths returns up to limit pairwise internally vertex-disjoint
// paths from s to t in g, computed by max flow on the node-split graph
// (Menger's theorem). limit <= 0 finds the maximum number. When minCost is
// true the min-cost solver is used, which makes the total length of the
// returned family minimum for its cardinality; this is only advisable for
// small graphs.
func VertexDisjointPaths(g graph.Graph, s, t uint64, limit int, minCost bool) ([][]uint64, error) {
	nw, err := pairNetwork(g, s, t)
	if err != nil {
		return nil, err
	}
	src, dst := int32(2*s+1), int32(2*t)
	var units int32
	if minCost {
		units, _ = nw.MinCostFlow(src, dst, int32(limit))
	} else {
		units = nw.MaxFlow(src, dst, int32(limit))
	}
	return extractPaths(nw, s, t, int(units)), nil
}

// LocalConnectivity returns the maximum number of internally vertex-disjoint
// s-t paths, i.e. the size of a minimum s-t vertex cut when s and t are not
// adjacent (Menger).
func LocalConnectivity(g graph.Graph, s, t uint64) (int, error) {
	nw, err := pairNetwork(g, s, t)
	if err != nil {
		return 0, err
	}
	return int(nw.MaxFlow(int32(2*s+1), int32(2*t), 0)), nil
}

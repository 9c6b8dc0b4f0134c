package flow

import (
	"math"

	"repro/internal/graph"
)

// MaxFlowDinic pushes up to limit units from s to t using Dinic's
// algorithm (BFS level graph + DFS blocking flows). On the unit-capacity
// split graphs this package builds, Dinic runs in O(E·√V) and is the
// preferred engine for wide cuts; for the handful-of-paths cuts of
// interconnection networks Edmonds–Karp is equally fine, so both engines
// are kept and differentially tested against each other.
func (nw *Network) MaxFlowDinic(s, t int32, limit int32) int32 {
	if limit <= 0 {
		limit = math.MaxInt32
	}
	level := make([]int32, nw.n)
	iter := make([]int32, nw.n)
	queue := make([]int32, 0, nw.n)
	var total int32

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for e := nw.first[v]; e != -1; e = nw.next[e] {
				w := nw.to[e]
				if nw.cap[e] > 0 && level[w] == -1 {
					level[w] = level[v] + 1
					queue = append(queue, w)
				}
			}
		}
		return level[t] != -1
	}

	var dfs func(v int32, pushed int32) int32
	dfs = func(v int32, pushed int32) int32 {
		if v == t {
			return pushed
		}
		for ; iter[v] != -1; iter[v] = nw.next[iter[v]] {
			e := iter[v]
			w := nw.to[e]
			if nw.cap[e] <= 0 || level[w] != level[v]+1 {
				continue
			}
			d := pushed
			if nw.cap[e] < d {
				d = nw.cap[e]
			}
			if got := dfs(w, d); got > 0 {
				nw.cap[e] -= got
				nw.cap[e^1] += got
				return got
			}
		}
		return 0
	}

	for total < limit && bfs() {
		copy(iter, nw.first)
		for total < limit {
			pushed := dfs(s, limit-total)
			if pushed == 0 {
				break
			}
			total += pushed
		}
	}
	return total
}

// VertexDisjointPathsDinic is VertexDisjointPaths with the Dinic engine
// (always max-cardinality; no min-cost variant).
func VertexDisjointPathsDinic(g graph.Graph, s, t uint64, limit int) ([][]uint64, error) {
	nw, err := pairNetwork(g, s, t)
	if err != nil {
		return nil, err
	}
	units := nw.MaxFlowDinic(int32(2*s+1), int32(2*t), int32(limit))
	return extractPaths(nw, s, t, int(units)), nil
}

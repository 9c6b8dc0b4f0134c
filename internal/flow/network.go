// Package flow implements maximum flow and minimum-cost maximum flow on
// explicit networks, plus vertex-capacity (node-splitting) helpers that turn
// Menger's theorem into an executable baseline: the maximum number of
// vertex-disjoint paths between two vertices of an implicit graph.
//
// Three solvers are provided:
//
//   - MaxFlow: Edmonds–Karp (BFS augmentation). Linear-memory, suitable for
//     split graphs with millions of vertices when only a handful of
//     augmenting paths are needed (path counts in interconnection networks
//     are bounded by the degree).
//   - MinCostFlow: successive shortest augmenting paths with SPFA. Intended
//     for small networks (hundreds of vertices), where it yields the
//     minimum-total-length family of disjoint paths.
//   - FanSolver: MinCostFlow specialised to fans (one source, many
//     targets) on one graph. It builds the graph's split network once and
//     runs each fan on a pooled copy, so repeated fans in the same graph
//     allocate only their answer.
package flow

import (
	"errors"
	"fmt"
	"math"
)

// Network is a directed flow network with parallel-edge support. Adding an
// edge implicitly adds its residual reverse edge.
type Network struct {
	n     int
	first []int32 // head of per-vertex edge list, -1 terminated
	next  []int32 // next edge in the source vertex's list
	to    []int32
	cap   []int32
	cost  []int32
}

// NewNetwork returns an empty network on n vertices (IDs 0..n-1).
func NewNetwork(n int) *Network {
	first := make([]int32, n)
	for i := range first {
		first[i] = -1
	}
	return &Network{n: n, first: first}
}

// Order returns the number of vertices.
func (nw *Network) Order() int { return nw.n }

// NumEdges returns the number of directed edges including residual twins.
func (nw *Network) NumEdges() int { return len(nw.to) }

// AddEdge adds a directed edge u->v with the given capacity and unit cost
// and returns its ID. The matching residual edge gets ID id^1.
func (nw *Network) AddEdge(u, v int32, capacity, cost int32) int {
	if u < 0 || v < 0 || int(u) >= nw.n || int(v) >= nw.n {
		panic(fmt.Sprintf("flow: edge (%d,%d) out of range [0,%d)", u, v, nw.n))
	}
	id := int32(len(nw.to))
	nw.to = append(nw.to, v, u)
	nw.cap = append(nw.cap, capacity, 0)
	nw.cost = append(nw.cost, cost, -cost)
	nw.next = append(nw.next, nw.first[u], nw.first[v])
	nw.first[u] = id
	nw.first[v] = id + 1
	return int(id)
}

// Flow returns the amount of flow pushed over edge id (the residual twin's
// remaining capacity).
func (nw *Network) Flow(id int) int32 { return nw.cap[id^1] }

// ErrNoAugmentingPath is returned by solvers when the requested flow value
// cannot be reached.
var ErrNoAugmentingPath = errors.New("flow: no augmenting path")

// MaxFlow pushes up to limit units from s to t using Edmonds–Karp and
// returns the flow value achieved. limit <= 0 means unbounded.
func (nw *Network) MaxFlow(s, t int32, limit int32) int32 {
	if limit <= 0 {
		limit = math.MaxInt32
	}
	var total int32
	parentEdge := make([]int32, nw.n)
	queue := make([]int32, 0, nw.n)
	for total < limit {
		for i := range parentEdge {
			parentEdge[i] = -1
		}
		parentEdge[s] = -2
		queue = append(queue[:0], s)
		found := false
	bfs:
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for e := nw.first[v]; e != -1; e = nw.next[e] {
				w := nw.to[e]
				if nw.cap[e] > 0 && parentEdge[w] == -1 {
					parentEdge[w] = e
					if w == t {
						found = true
						break bfs
					}
					queue = append(queue, w)
				}
			}
		}
		if !found {
			break
		}
		// Bottleneck along the path.
		push := limit - total
		for v := t; v != s; {
			e := parentEdge[v]
			if nw.cap[e] < push {
				push = nw.cap[e]
			}
			v = nw.to[e^1]
		}
		for v := t; v != s; {
			e := parentEdge[v]
			nw.cap[e] -= push
			nw.cap[e^1] += push
			v = nw.to[e^1]
		}
		total += push
	}
	return total
}

// MinCostFlow pushes up to limit units from s to t along successively
// cheapest augmenting paths (SPFA/Bellman-Ford, so negative residual costs
// are fine) and returns the achieved flow and its total cost. limit <= 0
// means unbounded. Intended for small networks.
func (nw *Network) MinCostFlow(s, t int32, limit int32) (flowVal, totalCost int32) {
	return nw.minCostFlow(s, t, limit, new(spfaScratch))
}

// spfaScratch is MinCostFlow's working memory, kept between calls by
// callers that solve many small networks.
type spfaScratch struct {
	dist, parentEdge, queue []int32
	inQueue                 []bool
}

// minCostFlow is MinCostFlow with its buffers taken from sc.
func (nw *Network) minCostFlow(s, t int32, limit int32, sc *spfaScratch) (flowVal, totalCost int32) {
	if limit <= 0 {
		limit = math.MaxInt32
	}
	if cap(sc.dist) < nw.n {
		sc.dist = make([]int32, nw.n)
		sc.parentEdge = make([]int32, nw.n)
		sc.inQueue = make([]bool, nw.n) // all false again whenever SPFA ends
	}
	dist, parentEdge, inQueue := sc.dist[:nw.n], sc.parentEdge[:nw.n], sc.inQueue[:nw.n]
	for flowVal < limit {
		for i := range dist {
			dist[i] = math.MaxInt32
			parentEdge[i] = -1
		}
		dist[s] = 0
		queue := append(sc.queue[:0], s)
		inQueue[s] = true
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			inQueue[v] = false
			for e := nw.first[v]; e != -1; e = nw.next[e] {
				w := nw.to[e]
				if nw.cap[e] > 0 && dist[v]+nw.cost[e] < dist[w] {
					dist[w] = dist[v] + nw.cost[e]
					parentEdge[w] = e
					if !inQueue[w] {
						inQueue[w] = true
						queue = append(queue, w)
					}
				}
			}
		}
		sc.queue = queue
		if parentEdge[t] == -1 {
			break
		}
		push := limit - flowVal
		for v := t; v != s; {
			e := parentEdge[v]
			if nw.cap[e] < push {
				push = nw.cap[e]
			}
			v = nw.to[e^1]
		}
		for v := t; v != s; {
			e := parentEdge[v]
			nw.cap[e] -= push
			nw.cap[e^1] += push
			totalCost += push * nw.cost[e]
			v = nw.to[e^1]
		}
		flowVal += push
	}
	return flowVal, totalCost
}

// Package deadlock performs channel-dependency-graph (CDG) analysis of
// routing functions on the hierarchical hypercube — the classical Dally &
// Seitz criterion: wormhole routing is deadlock-free iff the directed graph
// whose vertices are network channels (directed links) and whose edges are
// the consecutive channel pairs some route can occupy is acyclic.
//
// The package enumerates (or samples) routes produced by a routing
// function, accumulates the dependency relation, and either certifies
// acyclicity or returns a concrete dependency cycle — the witness that the
// routing function needs virtual channels on a wormhole network.
package deadlock

import (
	"fmt"
	"sort"

	"repro/internal/hhc"
)

// Link is a directed channel.
type Link struct {
	From, To hhc.Node
}

// Report is the outcome of a CDG analysis.
type Report struct {
	Routes       int  // routes analyzed
	Links        int  // distinct channels used
	Dependencies int  // distinct consecutive-channel pairs
	Acyclic      bool // Dally–Seitz criterion satisfied
	// Cycle is a witness dependency cycle (first link repeated at the end)
	// when Acyclic is false.
	Cycle []Link
}

// Analyze builds the CDG of the given routes and checks it for cycles.
// Routes must be valid walks (consecutive nodes adjacent); single-node and
// single-edge routes contribute channels but no dependencies.
func Analyze(routes [][]hhc.Node) Report {
	linkID := make(map[Link]int)
	var links []Link
	idOf := func(l Link) int {
		if id, ok := linkID[l]; ok {
			return id
		}
		id := len(links)
		linkID[l] = id
		links = append(links, l)
		return id
	}
	adj := make(map[int]map[int]bool)
	deps := 0
	for _, route := range routes {
		prev := -1
		for i := 1; i < len(route); i++ {
			cur := idOf(Link{From: route[i-1], To: route[i]})
			if prev >= 0 {
				if adj[prev] == nil {
					adj[prev] = make(map[int]bool)
				}
				if !adj[prev][cur] {
					adj[prev][cur] = true
					deps++
				}
			}
			prev = cur
		}
	}
	rep := Report{Routes: len(routes), Links: len(links), Dependencies: deps}
	cycle := findCycle(len(links), adj)
	if cycle == nil {
		rep.Acyclic = true
		return rep
	}
	for _, id := range cycle {
		rep.Cycle = append(rep.Cycle, links[id])
	}
	return rep
}

// findCycle runs an iterative three-color DFS and returns one directed
// cycle as link IDs (first element repeated last), or nil.
func findCycle(n int, adj map[int]map[int]bool) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	for start := 0; start < n; start++ {
		if color[start] != white {
			continue
		}
		// Iterative DFS with explicit stack of (node, iterator state).
		type frame struct {
			v    int
			next []int
		}
		// Neighbours are visited in ascending link ID order, so the walk
		// and the witness it returns do not depend on map iteration.
		neighbors := func(v int) []int {
			out := make([]int, 0, len(adj[v]))
			for w := range adj[v] {
				out = append(out, w)
			}
			sort.Ints(out)
			return out
		}
		stack := []frame{{v: start, next: neighbors(start)}}
		color[start] = gray
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if len(top.next) == 0 {
				color[top.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			w := top.next[0]
			top.next = top.next[1:]
			switch color[w] {
			case white:
				color[w] = gray
				parent[w] = top.v
				stack = append(stack, frame{v: w, next: neighbors(w)})
			case gray:
				// Found a back edge top.v -> w: reconstruct the cycle.
				cycle := []int{w}
				for c := top.v; c != w; c = parent[c] {
					cycle = append(cycle, c)
				}
				cycle = append(cycle, w)
				// Reverse into forward order.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return cycle
			}
		}
	}
	return nil
}

// RouterFunc produces a route between two nodes.
type RouterFunc func(u, v hhc.Node) ([]hhc.Node, error)

// AnalyzeRouter runs the CDG analysis over every ordered node pair of an
// enumerable network (m <= 2 exhaustive is 4032 routes; m = 3 is ~4M, so a
// stride parameter subsamples the pair space deterministically).
func AnalyzeRouter(g *hhc.Graph, router RouterFunc, stride int) (Report, error) {
	n, ok := g.NumNodes()
	if !ok || n > 1<<12 {
		return Report{}, fmt.Errorf("deadlock: network too large to enumerate (use a subsample of pairs)")
	}
	if stride < 1 {
		stride = 1
	}
	var routes [][]hhc.Node
	count := 0
	for i := uint64(0); i < n; i++ {
		for j := uint64(0); j < n; j++ {
			if i == j {
				continue
			}
			count++
			if count%stride != 0 {
				continue
			}
			p, err := router(g.NodeFromID(i), g.NodeFromID(j))
			if err != nil {
				return Report{}, err
			}
			routes = append(routes, p)
		}
	}
	return Analyze(routes), nil
}

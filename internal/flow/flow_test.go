package flow

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestMaxFlowTextbook(t *testing.T) {
	// Classic 6-vertex example with max flow 23.
	nw := NewNetwork(6)
	type e struct{ u, v, c int32 }
	for _, x := range []e{
		{0, 1, 16}, {0, 2, 13}, {1, 2, 10}, {2, 1, 4}, {1, 3, 12},
		{3, 2, 9}, {2, 4, 14}, {4, 3, 7}, {3, 5, 20}, {4, 5, 4},
	} {
		nw.AddEdge(x.u, x.v, x.c, 0)
	}
	if got := nw.MaxFlow(0, 5, 0); got != 23 {
		t.Fatalf("max flow = %d, want 23", got)
	}
}

func TestMaxFlowLimit(t *testing.T) {
	nw := NewNetwork(2)
	nw.AddEdge(0, 1, 10, 0)
	if got := nw.MaxFlow(0, 1, 3); got != 3 {
		t.Fatalf("limited flow = %d, want 3", got)
	}
}

func TestMinCostFlowPrefersCheapPath(t *testing.T) {
	// Two parallel routes: cost 1 and cost 10; one unit must take the cheap one.
	nw := NewNetwork(4)
	nw.AddEdge(0, 1, 1, 1)
	nw.AddEdge(1, 3, 1, 0)
	nw.AddEdge(0, 2, 1, 10)
	nw.AddEdge(2, 3, 1, 0)
	flow, cost := nw.MinCostFlow(0, 3, 1)
	if flow != 1 || cost != 1 {
		t.Fatalf("flow=%d cost=%d, want 1,1", flow, cost)
	}
	// Second unit forced onto the expensive route.
	flow, cost = nw.MinCostFlow(0, 3, 1)
	if flow != 1 || cost != 10 {
		t.Fatalf("second unit: flow=%d cost=%d, want 1,10", flow, cost)
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	nw := NewNetwork(2)
	nw.AddEdge(0, 5, 1, 0)
}

// cycleGraph builds C_n for disjoint-path sanity checks: exactly 2 disjoint
// paths between any two distinct vertices.
func cycleGraph(n int64) graph.Graph {
	return graph.FuncGraph{N: n, Degree: 2, Fn: func(v uint64, buf []uint64) []uint64 {
		return append(buf, (v+1)%uint64(n), (v+uint64(n)-1)%uint64(n))
	}}
}

// cubeGraph builds Q_k over IDs.
func cubeGraph(k int) graph.Graph {
	return graph.FuncGraph{N: 1 << uint(k), Degree: k, Fn: func(v uint64, buf []uint64) []uint64 {
		for i := 0; i < k; i++ {
			buf = append(buf, v^(1<<uint(i)))
		}
		return buf
	}}
}

func verifyDisjointIDs(t *testing.T, g graph.Graph, s, d uint64, paths [][]uint64) {
	t.Helper()
	seen := map[uint64]int{}
	for pi, p := range paths {
		if p[0] != s || p[len(p)-1] != d {
			t.Fatalf("path %d endpoints %v", pi, p)
		}
		inner := map[uint64]bool{}
		for i := 1; i < len(p); i++ {
			nbrs := g.Neighbors(p[i-1], nil)
			ok := false
			for _, w := range nbrs {
				if w == p[i] {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("path %d not contiguous at %d: %v", pi, i, p)
			}
			if i < len(p)-1 {
				if inner[p[i]] {
					t.Fatalf("path %d self-intersects: %v", pi, p)
				}
				inner[p[i]] = true
				if prev, dup := seen[p[i]]; dup {
					t.Fatalf("paths %d and %d share %d", prev, pi, p[i])
				}
				seen[p[i]] = pi
			}
		}
	}
}

func TestVertexDisjointPathsCycle(t *testing.T) {
	g := cycleGraph(9)
	for _, minCost := range []bool{false, true} {
		paths, err := VertexDisjointPaths(g, 1, 5, 0, minCost)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 2 {
			t.Fatalf("cycle gives %d paths, want 2", len(paths))
		}
		verifyDisjointIDs(t, g, 1, 5, paths)
	}
}

func TestVertexDisjointPathsCube(t *testing.T) {
	for k := 2; k <= 5; k++ {
		g := cubeGraph(k)
		r := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 30; trial++ {
			s := r.Uint64() & (1<<uint(k) - 1)
			d := r.Uint64() & (1<<uint(k) - 1)
			if s == d {
				continue
			}
			paths, err := VertexDisjointPaths(g, s, d, 0, k <= 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != k {
				t.Fatalf("Q_%d: %d disjoint paths, want %d (connectivity)", k, len(paths), k)
			}
			verifyDisjointIDs(t, g, s, d, paths)
		}
	}
}

func TestVertexDisjointPathsLimit(t *testing.T) {
	g := cubeGraph(4)
	paths, err := VertexDisjointPaths(g, 0, 15, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("limited to 2, got %d", len(paths))
	}
	verifyDisjointIDs(t, g, 0, 15, paths)
}

func TestVertexDisjointPathsErrors(t *testing.T) {
	g := cycleGraph(5)
	if _, err := VertexDisjointPaths(g, 2, 2, 0, false); err == nil {
		t.Fatal("s == t: want error")
	}
	if _, err := VertexDisjointPaths(g, 0, 9, 0, false); err == nil {
		t.Fatal("out of range: want error")
	}
}

func TestLocalConnectivity(t *testing.T) {
	if k, err := LocalConnectivity(cycleGraph(8), 0, 4); err != nil || k != 2 {
		t.Fatalf("cycle connectivity = %d, %v; want 2", k, err)
	}
	if k, err := LocalConnectivity(cubeGraph(4), 3, 12); err != nil || k != 4 {
		t.Fatalf("Q_4 connectivity = %d, %v; want 4", k, err)
	}
	// Path graph: cut vertex makes connectivity 1.
	path := graph.FuncGraph{N: 3, Degree: 2, Fn: func(v uint64, buf []uint64) []uint64 {
		switch v {
		case 0:
			return append(buf, 1)
		case 1:
			return append(buf, 0, 2)
		default:
			return append(buf, 1)
		}
	}}
	if k, err := LocalConnectivity(path, 0, 2); err != nil || k != 1 {
		t.Fatalf("path connectivity = %d, %v; want 1", k, err)
	}
}

func TestFanOnCube(t *testing.T) {
	g := cubeGraph(4)
	targets := []uint64{0b1111, 0b0110, 0b1000}
	fan, err := VertexDisjointFan(g, 0, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(fan) != 3 {
		t.Fatalf("fan size %d", len(fan))
	}
	seen := map[uint64]int{}
	for i, p := range fan {
		if p[0] != 0 || p[len(p)-1] != targets[i] {
			t.Fatalf("fan %d endpoints wrong: %v", i, p)
		}
		for _, v := range p[1:] {
			if prev, dup := seen[v]; dup {
				t.Fatalf("fan paths %d and %d share %d", prev, i, v)
			}
			seen[v] = i
		}
	}
}

func TestFanErrors(t *testing.T) {
	cases := []struct {
		name    string
		g       graph.Graph
		src     uint64
		targets []uint64
	}{
		{"target equals source", cycleGraph(6), 0, []uint64{0}},
		{"duplicate target", cycleGraph(6), 0, []uint64{2, 2}},
		// A cycle is only 2-connected: a 3-target fan must fail.
		{"beyond connectivity", cycleGraph(6), 0, []uint64{1, 3, 5}},
		{"target out of range", cubeGraph(3), 0, []uint64{8}},
		{"target far out of range", cubeGraph(3), 0, []uint64{1, 1 << 40}},
		{"source out of range", cubeGraph(3), 8, []uint64{1}},
		{"source far out of range", cubeGraph(3), 1 << 40, []uint64{1}},
	}
	for _, c := range cases {
		if got, err := VertexDisjointFan(c.g, c.src, c.targets); err == nil {
			t.Errorf("%s: got %v, want error", c.name, got)
		}
	}
	if got, err := VertexDisjointFan(cycleGraph(6), 0, nil); err != nil || got != nil {
		t.Fatalf("empty fan: %v, %v", got, err)
	}
}

func TestLocalConnectivityErrors(t *testing.T) {
	cases := []struct {
		name string
		s, t uint64
	}{
		{"source equals target", 2, 2},
		{"source out of range", 8, 1},
		{"target out of range", 1, 8},
		{"target far out of range", 1, 1 << 40},
	}
	for _, c := range cases {
		if k, err := LocalConnectivity(cubeGraph(3), c.s, c.t); err == nil {
			t.Errorf("%s: got %d, want error", c.name, k)
		}
	}
}

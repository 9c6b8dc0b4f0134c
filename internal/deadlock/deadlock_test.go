package deadlock

import (
	"reflect"
	"testing"

	"repro/internal/hhc"
)

func mustGraph(t *testing.T, m int) *hhc.Graph {
	t.Helper()
	g, err := hhc.New(m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAnalyzeKnownAcyclic: two routes sharing a channel without circular
// waiting form an acyclic CDG.
func TestAnalyzeKnownAcyclic(t *testing.T) {
	g := mustGraph(t, 2)
	a := hhc.Node{X: 0, Y: 0}
	b := g.LocalNeighbor(a, 0)
	c := g.LocalNeighbor(b, 1)
	d := g.ExternalNeighbor(c)
	rep := Analyze([][]hhc.Node{
		{a, b, c},
		{b, c, d},
	})
	if !rep.Acyclic {
		t.Fatalf("expected acyclic, got cycle %v", rep.Cycle)
	}
	if rep.Links != 3 || rep.Dependencies != 2 || rep.Routes != 2 {
		t.Fatalf("stats: %+v", rep)
	}
}

// TestAnalyzeKnownCycle: routes chasing each other around a 4-cycle of the
// network create the textbook circular wait.
func TestAnalyzeKnownCycle(t *testing.T) {
	// A 4-cycle inside one son-cube of HHC_6: y = 0 -> 1 -> 3 -> 2 -> 0.
	n0 := hhc.Node{X: 5, Y: 0}
	n1 := hhc.Node{X: 5, Y: 1}
	n3 := hhc.Node{X: 5, Y: 3}
	n2 := hhc.Node{X: 5, Y: 2}
	rep := Analyze([][]hhc.Node{
		{n0, n1, n3},
		{n1, n3, n2},
		{n3, n2, n0},
		{n2, n0, n1},
	})
	if rep.Acyclic {
		t.Fatal("expected a dependency cycle")
	}
	if len(rep.Cycle) < 3 {
		t.Fatalf("degenerate cycle witness %v", rep.Cycle)
	}
	if rep.Cycle[0] != rep.Cycle[len(rep.Cycle)-1] {
		t.Fatalf("cycle witness not closed: %v", rep.Cycle)
	}
	// Every consecutive pair in the witness must be a recorded dependency
	// (link2 starts where link1 ends).
	for i := 1; i < len(rep.Cycle); i++ {
		if rep.Cycle[i-1].To != rep.Cycle[i].From {
			t.Fatalf("witness not a channel chain at %d: %v", i, rep.Cycle)
		}
	}
}

// TestAnalyzeRouterM1: HHC_3 is an 8-cycle, and minimal routing on a ring
// is Dally's textbook example of a CYCLIC channel dependency graph (each
// clockwise route waits on the next clockwise channel, all the way around)
// — the original motivation for virtual channels. The analysis must find
// that cycle and produce a valid witness.
func TestAnalyzeRouterM1(t *testing.T) {
	g := mustGraph(t, 1)
	rep, err := AnalyzeRouter(g, g.Route, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acyclic {
		t.Fatal("minimal ring routing must have a cyclic CDG (Dally's example)")
	}
	if rep.Links != 16 { // 8 undirected edges, both directions used
		t.Fatalf("links = %d, want 16", rep.Links)
	}
	for i := 1; i < len(rep.Cycle); i++ {
		if rep.Cycle[i-1].To != rep.Cycle[i].From {
			t.Fatalf("invalid witness at %d: %v", i, rep.Cycle)
		}
	}
}

// TestAnalyzeRoutersM2 measures the real question: are the HHC routers
// deadlock-free on HHC_6? The result (either way) is pinned as a regression
// test; experiment E17 reports the numbers.
func TestAnalyzeRoutersM2(t *testing.T) {
	g := mustGraph(t, 2)
	for _, tc := range []struct {
		name   string
		router RouterFunc
	}{
		{"shortest", g.Route},
		{"dim-order", g.RouteDimOrder},
	} {
		rep, err := AnalyzeRouter(g, tc.router, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Routes != 64*63 {
			t.Fatalf("%s: %d routes", tc.name, rep.Routes)
		}
		// All 192 directed links of HHC_6 should be exercised by all-pairs
		// traffic.
		if rep.Links != 192 {
			t.Fatalf("%s: %d links, want 192", tc.name, rep.Links)
		}
		t.Logf("%s: deps=%d acyclic=%v", tc.name, rep.Dependencies, rep.Acyclic)
		if !rep.Acyclic {
			// A cycle witness must at least be structurally valid.
			for i := 1; i < len(rep.Cycle); i++ {
				if rep.Cycle[i-1].To != rep.Cycle[i].From {
					t.Fatalf("%s: invalid witness", tc.name)
				}
			}
		}
	}
}

// TestAnalyzeWitnessRepeatable: the dependency graph is held in maps, yet
// repeated analyses of the same routes must report the identical cycle,
// so E17's witness-len column is reproducible.
func TestAnalyzeWitnessRepeatable(t *testing.T) {
	g := mustGraph(t, 2)
	first, err := AnalyzeRouter(g, g.Route, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Acyclic {
		t.Fatal("m=2 shortest routing reported acyclic; no witness to compare")
	}
	for i := 1; i < 20; i++ {
		rep, err := AnalyzeRouter(g, g.Route, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Cycle, first.Cycle) {
			t.Fatalf("analysis %d: witness %v, first analysis gave %v", i+1, rep.Cycle, first.Cycle)
		}
	}
}

func TestAnalyzeRouterErrors(t *testing.T) {
	g := mustGraph(t, 4)
	if _, err := AnalyzeRouter(g, g.Route, 1); err == nil {
		t.Fatal("huge network accepted")
	}
}

func TestAnalyzeRouterStride(t *testing.T) {
	g := mustGraph(t, 2)
	rep, err := AnalyzeRouter(g, g.Route, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Routes != 64*63/7 {
		t.Fatalf("stride sampling produced %d routes", rep.Routes)
	}
}

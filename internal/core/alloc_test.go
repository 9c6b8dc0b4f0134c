package core

import (
	"math/rand"
	"testing"

	"repro/internal/hhc"
	"repro/internal/obs"
)

// ConstructAllocBudget is the mean allocation count of one m=6 cross-cube
// construction. Measured: 33 allocs, with or without -race. What
// remains:
//   - selectSupers: the cyclic-order position map and the detour-used
//     map, the rotation-used marks, and one dimension sequence per
//     super-path (m+1);
//   - cyclicOrder's and detourPreference's dimension lists;
//   - realize's exit/entry bookkeeping slices;
//   - two per fan (the path headers and one backing array that all of
//     its paths share) — the split network and the solver's working
//     memory are reused;
//   - the container: its header and m+1 paths, each allocated once at
//     its exact length.
//
// The budget is the measured count with no margin, so any new
// per-construction allocation fails here.
const ConstructAllocBudget = 33

// TestConstructAllocBudget pins the construction's allocations: before the
// fan solver reused its split network, an m=6 construction made 623.
func TestConstructAllocBudget(t *testing.T) {
	g := mustGraph(t, 6)
	r := rand.New(rand.NewSource(6))
	pairs := make([][2]hhc.Node, 64)
	for i := range pairs {
		u := hhc.Node{X: r.Uint64(), Y: uint8(r.Intn(g.T()))}
		v := hhc.Node{X: r.Uint64(), Y: uint8(r.Intn(g.T()))}
		if u.X == v.X {
			v.X ^= 1
		}
		pairs[i] = [2]hhc.Node{u, v}
	}
	i := 0
	got := testing.AllocsPerRun(len(pairs)*4, func() {
		p := pairs[i%len(pairs)]
		i++
		paths, err := DisjointPaths(g, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if len(path) != cap(path) {
				t.Fatalf("path of %d nodes has capacity %d, want its exact length", len(path), cap(path))
			}
		}
	})
	if got > ConstructAllocBudget {
		t.Errorf("m=6 construction allocates %.1f allocs/op, budget %d", got, ConstructAllocBudget)
	}
	t.Logf("m=6 construction: %.1f allocs/op (budget %d)", got, ConstructAllocBudget)
}

// TracedConstructAllocBudget is the same m=6 construction's count with an
// observer and a tracer installed, as hhcd runs it. Measured: exactly 40,
// with and without -race, since endpoints are rendered by strconv and no
// longer through fmt's pooled printers. Over ConstructAllocBudget: four
// spans (construct, derive, select, realize), the construct span's
// attribute list, and the two rendered endpoints (one each). Phases are
// values, not closures, so a phase costs only its span.
const TracedConstructAllocBudget = 40

// TestTracedConstructAllocBudget pins the instrumented construction the
// service runs: with phases opened as closures it made 46.
func TestTracedConstructAllocBudget(t *testing.T) {
	SetObserver(NewObserver(obs.NewRegistry(), obs.NewTracer(0)))
	defer SetObserver(nil)
	g := mustGraph(t, 6)
	r := rand.New(rand.NewSource(6))
	pairs := make([][2]hhc.Node, 64)
	for i := range pairs {
		u := hhc.Node{X: r.Uint64(), Y: uint8(r.Intn(g.T()))}
		v := hhc.Node{X: r.Uint64(), Y: uint8(r.Intn(g.T()))}
		if u.X == v.X {
			v.X ^= 1
		}
		pairs[i] = [2]hhc.Node{u, v}
	}
	i := 0
	got := testing.AllocsPerRun(len(pairs)*4, func() {
		p := pairs[i%len(pairs)]
		i++
		if _, err := DisjointPaths(g, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	})
	if got > TracedConstructAllocBudget {
		t.Errorf("traced m=6 construction allocates %.1f allocs/op, budget %d", got, TracedConstructAllocBudget)
	}
	t.Logf("traced m=6 construction: %.1f allocs/op (budget %d)", got, TracedConstructAllocBudget)
}

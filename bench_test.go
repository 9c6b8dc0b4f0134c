package repro

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/dessim"
	"repro/internal/exp"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/hhc"
	"repro/internal/hypercube"
	"repro/internal/netsim"
)

// ---------------------------------------------------------------------------
// One benchmark per evaluation table/figure (E1..E10). Each runs the same
// harness entry that cmd/hhcbench prints, in quick mode so a full
// `go test -bench=.` stays tractable; the rendered full-fidelity outputs
// live in EXPERIMENTS.md.
// ---------------------------------------------------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exp.Config{Quick: true, Seed: 20060425}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := t.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE1Properties(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2Construct(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3Profile(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4Baseline(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5Scaling(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6Faults(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7WideDiameter(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8Ablation(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9Compare(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Netsim(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11Measured(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12Broadcast(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13Rings(b *testing.B)        { benchExperiment(b, "E13") }
func BenchmarkE14Permutation(b *testing.B)  { benchExperiment(b, "E14") }
func BenchmarkE15CrossNetwork(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkE16Patterns(b *testing.B)     { benchExperiment(b, "E16") }
func BenchmarkE17Deadlock(b *testing.B)     { benchExperiment(b, "E17") }
func BenchmarkE20Adaptive(b *testing.B)     { benchExperiment(b, "E20") }
func BenchmarkE21Containers(b *testing.B)   { benchExperiment(b, "E21") }
func BenchmarkE22Saturation(b *testing.B)   { benchExperiment(b, "E22") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the primitives the experiments are built from.
// ---------------------------------------------------------------------------

// BenchmarkConstruct measures one container construction per iteration, for
// every supported m — the headline O(poly(n)) claim in numbers.
func BenchmarkConstruct(b *testing.B) {
	for m := 1; m <= 6; m++ {
		m := m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			g, err := hhc.New(m)
			if err != nil {
				b.Fatal(err)
			}
			pairs := gen.Pairs(g, 256, gen.Uniform, int64(m))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := core.DisjointPaths(g, p.U, p.V); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConstructStrategies ablates the cyclic-order strategy cost.
func BenchmarkConstructStrategies(b *testing.B) {
	g, err := hhc.New(4)
	if err != nil {
		b.Fatal(err)
	}
	pairs := gen.Pairs(g, 256, gen.Uniform, 4)
	for _, s := range []core.OrderStrategy{core.OrderAscending, core.OrderGray, core.OrderNearest} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := core.DisjointPathsOpt(g, p.U, p.V, core.Options{Order: s}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoute measures single-path routing (exact DP regime and the
// heuristic regime at m=6 where up to 64 dimensions differ).
func BenchmarkRoute(b *testing.B) {
	for _, m := range []int{3, 4, 6} {
		m := m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			g, err := hhc.New(m)
			if err != nil {
				b.Fatal(err)
			}
			pairs := gen.Pairs(g, 256, gen.Uniform, int64(m))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := g.Route(p.U, p.V); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerify measures the disjointness checker, which is linear in the
// total container length.
func BenchmarkVerify(b *testing.B) {
	g, err := hhc.New(4)
	if err != nil {
		b.Fatal(err)
	}
	pairs := gen.Pairs(g, 64, gen.Uniform, 9)
	containers := make([][][]hhc.Node, len(pairs))
	for i, p := range pairs {
		paths, err := core.DisjointPaths(g, p.U, p.V)
		if err != nil {
			b.Fatal(err)
		}
		containers[i] = paths
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if err := core.VerifyContainer(g, p.U, p.V, containers[i%len(pairs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFan measures the exact min-cost-flow fan solver inside a son-cube.
func BenchmarkFan(b *testing.B) {
	for _, m := range []int{3, 4, 5, 6} {
		m := m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(m)))
			type inst struct {
				src     uint64
				targets []uint64
			}
			insts := make([]inst, 64)
			for i := range insts {
				src := r.Uint64() & (1<<uint(m) - 1)
				seen := map[uint64]bool{src: true}
				targets := make([]uint64, 0, m)
				for len(targets) < m {
					v := r.Uint64() & (1<<uint(m) - 1)
					if !seen[v] {
						seen[v] = true
						targets = append(targets, v)
					}
				}
				insts[i] = inst{src, targets}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := insts[i%len(insts)]
				if _, err := hypercube.Fan(m, in.src, in.targets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlowBaseline measures the generic Menger baseline on the
// materialized network — the cost the constructive algorithm avoids.
func BenchmarkFlowBaseline(b *testing.B) {
	for _, m := range []int{2, 3} {
		m := m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			g, err := hhc.New(m)
			if err != nil {
				b.Fatal(err)
			}
			dg, err := g.Dense()
			if err != nil {
				b.Fatal(err)
			}
			pairs := gen.Pairs(g, 32, gen.Uniform, int64(m))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := flow.VertexDisjointPaths(dg, g.ID(p.U), g.ID(p.V), 0, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSetWalk measures the routing DP at both regimes.
func BenchmarkSetWalk(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{4, 8, 12, 20} {
		n := n
		b.Run(fmt.Sprintf("cities=%d", n), func(b *testing.B) {
			cities := make([]uint64, n)
			seen := map[uint64]bool{}
			for i := 0; i < n; {
				c := r.Uint64() & 0x3F
				if !seen[c] {
					seen[c] = true
					cities[i] = c
					i++
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hypercube.SetWalk(0, 0x3F, cities)
			}
		})
	}
}

// BenchmarkNetsim measures full simulation runs.
func BenchmarkNetsim(b *testing.B) {
	for _, mode := range []netsim.RoutingMode{netsim.SinglePath, netsim.MultiPathStripe} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			cfg := netsim.Config{
				M: 3, Mode: mode, Flows: 16, MessagesPerFlow: 30,
				MessageFlits: 64, ArrivalRate: 0.001, Seed: 3,
			}
			for i := 0; i < b.N; i++ {
				if _, err := netsim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatch measures the parallel batch API's scaling across worker
// counts (one iteration = a 512-pair sweep on the 2^20-node network).
func BenchmarkBatch(b *testing.B) {
	g, err := hhc.New(4)
	if err != nil {
		b.Fatal(err)
	}
	raw := gen.Pairs(g, 512, gen.Uniform, 5)
	pairs := make([]core.Pair, len(raw))
	for i, p := range raw {
		pairs[i] = core.Pair{U: p.U, V: p.V}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results := core.DisjointPathsBatch(g, pairs, core.Options{}, workers)
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkRingEmbed measures building and verifying the largest supported
// ring per m.
func BenchmarkRingEmbed(b *testing.B) {
	for _, m := range []int{3, 4} {
		m := m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			g, err := hhc.New(m)
			if err != nil {
				b.Fatal(err)
			}
			dims, err := g.RingDims(g.MaxRingExponent())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ring, err := g.EmbedRing(0, dims)
				if err != nil {
					b.Fatal(err)
				}
				if err := g.VerifyRing(ring); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHamiltonianPath measures the Havel construction.
func BenchmarkHamiltonianPath(b *testing.B) {
	for _, k := range []int{8, 12, 16} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hypercube.HamiltonianPath(k, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDimOrderRoute measures the distributed router end to end.
func BenchmarkDimOrderRoute(b *testing.B) {
	g, err := hhc.New(4)
	if err != nil {
		b.Fatal(err)
	}
	pairs := gen.Pairs(g, 256, gen.Uniform, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := g.RouteDimOrder(p.U, p.V); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeadlockAnalysis measures the all-pairs CDG build + cycle check.
func BenchmarkDeadlockAnalysis(b *testing.B) {
	g, err := hhc.New(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deadlock.AnalyzeRouter(g, g.Route, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDessim measures the raw generic engine on a synthetic workload.
func BenchmarkDessim(b *testing.B) {
	packets := make([]dessim.Packet[int], 0, 1000)
	for i := 0; i < 1000; i++ {
		route := []int{i % 50, 50 + i%30, 80 + i%10, 95}
		packets = append(packets, dessim.Packet[int]{
			Route: route, Flits: 16, Release: int64(i), Msg: i,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dessim.Simulate(packets, len(packets), dessim.StoreAndForward); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteAround measures fault-tolerant route selection.
func BenchmarkRouteAround(b *testing.B) {
	g, err := hhc.New(4)
	if err != nil {
		b.Fatal(err)
	}
	pairs := gen.Pairs(g, 128, gen.Uniform, 13)
	faultSets := make([]map[hhc.Node]bool, len(pairs))
	for i, p := range pairs {
		faultSets[i] = gen.FaultSet(g, g.M(), []hhc.Node{p.U, p.V}, int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pairs)
		if _, err := core.RouteAround(g, pairs[k].U, pairs[k].V, faultSets[k]); err != nil {
			b.Fatal(err)
		}
	}
}

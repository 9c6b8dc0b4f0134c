package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hhc"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pathsvc"
	"repro/internal/viz"
)

// TestEndToEndContainerPipeline walks the full user journey: topology →
// shortest route → container → verification → fault tolerance → DOT export,
// asserting cross-module consistency at each step.
func TestEndToEndContainerPipeline(t *testing.T) {
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	u, err := g.ParseNode("0x2a:3")
	if err != nil {
		t.Fatal(err)
	}
	v, err := g.ParseNode("0xd1:6")
	if err != nil {
		t.Fatal(err)
	}

	route, info, err := g.RouteEx(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Exact {
		t.Fatal("m=3 route must be exact")
	}

	paths, err := core.DisjointPaths(g, u, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyContainer(g, u, v, paths); err != nil {
		t.Fatal(err)
	}
	// The container's best path cannot beat the provably shortest route.
	for _, p := range paths {
		if len(p) < len(route) {
			t.Fatalf("container path shorter than the shortest path")
		}
	}

	// Kill the shortest container path's middle node; RouteAround must give
	// a fault-free alternative consistent with SurvivingPaths.
	shortest := paths[0]
	for _, p := range paths[1:] {
		if len(p) < len(shortest) {
			shortest = p
		}
	}
	faults := map[hhc.Node]bool{shortest[len(shortest)/2]: true}
	alt, err := core.RouteAround(g, u, v, faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(core.SurvivingPaths(paths, faults)) != len(paths)-1 {
		t.Fatal("exactly one path should have died")
	}
	if err := g.VerifyPath(u, v, alt); err != nil {
		t.Fatal(err)
	}

	var dot bytes.Buffer
	if err := viz.ContainerDOT(g, u, v, paths, &dot); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "graph container {") {
		t.Fatal("DOT export malformed")
	}
}

// TestConstructionAgreesWithFlowEverywhereM2: the strongest cross-module
// check — on the fully enumerable HHC_6, for EVERY ordered pair, the
// constructive container and the max-flow baseline must agree on width
// (m+1 = the local connectivity).
func TestConstructionAgreesWithFlowEverywhereM2(t *testing.T) {
	g, err := hhc.New(2)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := g.Dense()
	if err != nil {
		t.Fatal(err)
	}
	n, _ := g.NumNodes()
	for i := uint64(0); i < n; i++ {
		for j := uint64(0); j < n; j++ {
			if i == j {
				continue
			}
			u, v := g.NodeFromID(i), g.NodeFromID(j)
			paths, err := core.DisjointPaths(g, u, v)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := flow.VertexDisjointPaths(dg, i, j, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != len(fp) {
				t.Fatalf("%v->%v: construction %d vs flow %d", u, v, len(paths), len(fp))
			}
		}
	}
}

// TestBroadcastTreeFeedsSimulator: the collective tree's parent edges are
// real links, so a message routed hop-by-hop up the tree must match the
// routing validator.
func TestBroadcastTreeFeedsSimulator(t *testing.T) {
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	root := hhc.Node{X: 0x3c, Y: 2}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		w := g.RandomNode(r)
		path := []hhc.Node{w}
		cur := w
		for cur != root {
			p, err := collective.Parent(g, cur, root)
			if err != nil {
				t.Fatal(err)
			}
			path = append(path, p)
			cur = p
			if len(path) > g.DimOrderLengthBound()+1 {
				t.Fatalf("parent chain from %v does not terminate", w)
			}
		}
		if err := g.VerifyPath(w, root, path); err != nil {
			t.Fatalf("parent chain invalid: %v", err)
		}
	}
}

// TestSimulatorAgreesWithConstructionGuarantee: run the DES with exactly m
// node faults across many seeds; the fault-aware modes must never drop.
func TestSimulatorAgreesWithConstructionGuarantee(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, mode := range []netsim.RoutingMode{netsim.FaultAwareSingle, netsim.MultiPathStripe} {
			res, err := netsim.Run(netsim.Config{
				M: 3, Mode: mode, Flows: 10, MessagesPerFlow: 5,
				MessageFlits: 8, ArrivalRate: 0.01, FaultCount: 3, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Dropped != 0 {
				t.Fatalf("seed %d mode %v: dropped %d with f = m", seed, mode, res.Dropped)
			}
		}
	}
}

// TestWorkloadsAreCrossPackageConsistent: gen's structured pairs respect
// the properties the experiments assume.
func TestWorkloadsAreCrossPackageConsistent(t *testing.T) {
	g, err := hhc.New(4)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d <= g.T(); d += 4 {
		pairs, err := gen.PairsAtSuperDistance(g, 50, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			// Route's external-hop count must equal the requested d.
			_, info, err := g.RouteEx(p.U, p.V)
			if err != nil {
				t.Fatal(err)
			}
			if info.ExternalHops != d {
				t.Fatalf("d=%d pair routed with %d external hops", d, info.ExternalHops)
			}
		}
	}
}

// TestExperimentRegistryComplete: DESIGN.md's experiment table lists 20
// experiments; the registry must deliver them all with distinct IDs and
// working quick runs (runs are covered in exp's own tests; here we pin the
// catalogue).
func TestExperimentRegistryComplete(t *testing.T) {
	entries := exp.All()
	if len(entries) != 20 {
		t.Fatalf("registry has %d entries, want 20", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range []string{"E1", "E5", "E10", "E15"} {
		if !seen[id] {
			t.Fatalf("missing %s", id)
		}
	}
}

// TestSeriesRampVisible: the observability tentpole end to end. A live
// pathsvc server with windowed telemetry is sampled by a series ring
// served over /debug/series; an idle phase followed by a load burst must
// be visible in the endpoint's payload — zero-rate intervals first, then
// intervals with nonzero completion rates and latency percentiles — and
// the ring's 10-interval windowed quantile must read nonzero while the
// burst is in the lookback window.
func TestSeriesRampVisible(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := pathsvc.New(pathsvc.Config{M: 2, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	const interval = 50 * time.Millisecond
	ring := obs.NewSeriesRing(reg, interval, 64)
	ring.Start()
	defer ring.Stop()
	web := httptest.NewServer(ring.Handler())
	defer web.Close()

	// Phase 1: idle. Let a few intervals pass with no traffic.
	time.Sleep(3 * interval)

	// Phase 2: burst. Four closed-loop clients for a handful of intervals.
	c, err := pathsvc.DialWith(ln.Addr().String(), pathsvc.DialOptions{Proto: pathsvc.ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, err := hhc.New(2)
	if err != nil {
		t.Fatal(err)
	}
	pool := gen.Pairs(g, 8, gen.Uniform, 7)
	stopBurst := time.Now().Add(6 * interval)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var req pathsvc.RequestV2
			var resp pathsvc.ResponseV2
			i := 0
			for time.Now().Before(stopBurst) {
				p := pool[i%len(pool)]
				i++
				req = pathsvc.RequestV2{Op: pathsvc.OpCodePaths, U: p.U, V: p.V, TimeoutNS: int64(time.Second)}
				if err := c.DoV2(&req, &resp); err != nil {
					t.Errorf("burst query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	time.Sleep(2 * interval) // let the sampler capture the burst's tail

	resp, err := http.Get(web.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.SeriesSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Points) < 5 {
		t.Fatalf("ring captured %d points, want >= 5", len(snap.Points))
	}
	var idle, busy int
	var sawLatency bool
	for _, p := range snap.Points {
		switch {
		case p.Counters["pathsvc_completed_total"] == 0:
			idle++
		default:
			busy++
			if p.Rates["pathsvc_completed_total"] <= 0 {
				t.Errorf("busy interval has completion delta but zero rate: %+v", p)
			}
			if h, ok := p.Hists["pathsvc_request_seconds"]; ok && h.Count > 0 && h.P99 > 0 {
				sawLatency = true
			}
		}
	}
	if idle == 0 || busy == 0 {
		t.Fatalf("ramp not visible: %d idle and %d busy intervals (want both nonzero)", idle, busy)
	}
	if !sawLatency {
		t.Error("no busy interval carried request-latency percentiles")
	}
	if snap.Summary["pathsvc_request_seconds"].Count == 0 {
		t.Error("ring summary merged zero request-latency samples")
	}
	// The windowed quantile every live consumer reads (hhcobs -live and
	// -cluster) summarizes the last 10 intervals, which still hold the
	// burst.
	if q := ring.Snapshot(10).Summary["pathsvc_request_seconds"].P99; q <= 0 {
		t.Errorf("windowed p99 = %g, want > 0 right after a burst", q)
	}
}

// TestGroundTruthChainM1: on the tiny HHC_3 (8 nodes, a cycle), everything
// must agree with hand-computable facts: diameter 4, degree 2, containers
// of width 2 whose two paths are the two arcs of the cycle.
func TestGroundTruthChainM1(t *testing.T) {
	g, err := hhc.New(1)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := g.Dense()
	if err != nil {
		t.Fatal(err)
	}
	diam, err := graph.Diameter(dg)
	if err != nil {
		t.Fatal(err)
	}
	if diam != 4 {
		t.Fatalf("HHC_3 diameter %d, want 4 (an 8-cycle)", diam)
	}
	edges, err := graph.CountEdges(dg)
	if err != nil || edges != 8 {
		t.Fatalf("HHC_3 has %d edges, want 8", edges)
	}
	u, v := g.NodeFromID(0), g.NodeFromID(5)
	paths, err := core.DisjointPaths(g, u, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("container width %d, want 2", len(paths))
	}
	// The two arc lengths of an 8-cycle sum to 8.
	if (len(paths[0])-1)+(len(paths[1])-1) != 8 {
		t.Fatalf("arc lengths %d + %d != 8", len(paths[0])-1, len(paths[1])-1)
	}
}

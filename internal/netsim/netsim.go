// Package netsim is a deterministic discrete-event simulator of
// store-and-forward packet switching on a hierarchical hypercube. It exists
// to reproduce the motivating experiments of disjoint-path papers: how much
// end-to-end latency and delivered throughput improve when a message is
// striped across the m+1 node-disjoint paths of the container instead of
// following a single shortest path, and how the network degrades under node
// faults.
//
// Model: every directed link transmits one packet at a time; a packet of F
// flits occupies the link for F cycles and is fully received at the next
// node F cycles after it starts (store-and-forward). Nodes have unbounded
// FIFO output queues, modeled by per-link busy-until times. Messages arrive
// per flow with exponential interarrival times (a Poisson process) and are
// routed on precomputed paths, so the simulation cost depends on traffic,
// not on the 2^n network size.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dessim"
	"repro/internal/gen"
	"repro/internal/hhc"
	"repro/internal/obs"
	"repro/internal/stats"
)

// RoutingMode selects how messages are mapped onto paths.
type RoutingMode int

const (
	// SinglePath routes every message along one shortest path. Messages
	// whose path crosses a faulty node are dropped.
	SinglePath RoutingMode = iota
	// MultiPathStripe splits every message evenly across the surviving
	// paths of the (m+1)-container; the message completes when its last
	// stripe arrives. Dropped only if every container path is faulty.
	MultiPathStripe
	// FaultAwareSingle routes along the shortest surviving container path
	// (the RouteAround policy): single-path latency, fault tolerance up to
	// m faults.
	FaultAwareSingle
	// AdaptiveLocal routes with local fault discovery only (the deflecting
	// dimension-ordered heuristic): no global fault knowledge, no
	// guarantee, measured delivery probability.
	AdaptiveLocal
)

// String names the mode.
func (m RoutingMode) String() string {
	switch m {
	case SinglePath:
		return "single-path"
	case MultiPathStripe:
		return "multi-path"
	case FaultAwareSingle:
		return "fault-aware"
	case AdaptiveLocal:
		return "adaptive-local"
	default:
		return fmt.Sprintf("RoutingMode(%d)", int(m))
	}
}

// Switching selects the flow-control model.
type Switching int

const (
	// StoreAndForward receives a whole packet before forwarding it: an
	// F-flit packet takes F cycles per hop.
	StoreAndForward Switching = iota
	// CutThrough (virtual cut-through) forwards the head flit one hop per
	// cycle while the body streams behind it: unloaded latency is
	// hops + F instead of hops × F. Stalled worms buffer at nodes (no
	// upstream link blocking), which is the classical VCT approximation.
	CutThrough
)

// String names the switching model.
func (s Switching) String() string {
	switch s {
	case StoreAndForward:
		return "store-and-forward"
	case CutThrough:
		return "cut-through"
	default:
		return fmt.Sprintf("Switching(%d)", int(s))
	}
}

// TrafficPattern selects how flow endpoints are drawn — the classical
// interconnection-network evaluation patterns.
type TrafficPattern int

const (
	// PatternUniform draws both endpoints uniformly (the default).
	PatternUniform TrafficPattern = iota
	// PatternHotspot sends every flow to one shared destination,
	// concentrating load on its incident links.
	PatternHotspot
	// PatternComplement pairs each source with its address complement —
	// maximum-distance, maximally structured traffic.
	PatternComplement
	// PatternBitReverse pairs ID x with its n-bit reversal, the classic
	// FFT-style permutation. Needs IDs to fit uint64 (m <= 5).
	PatternBitReverse
)

// String names the pattern.
func (p TrafficPattern) String() string {
	switch p {
	case PatternUniform:
		return "uniform"
	case PatternHotspot:
		return "hotspot"
	case PatternComplement:
		return "complement"
	case PatternBitReverse:
		return "bit-reverse"
	default:
		return fmt.Sprintf("TrafficPattern(%d)", int(p))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	M               int            // HHC parameter; the network has 2^(2^M+M) nodes
	Mode            RoutingMode    // path mapping policy
	Switch          Switching      // flow control; zero value = StoreAndForward
	Pattern         TrafficPattern // endpoint structure; zero value = PatternUniform
	Flows           int            // number of concurrent source/destination flows
	MessagesPerFlow int            // messages generated per flow
	MessageFlits    int            // message size in flits
	ArrivalRate     float64        // mean messages per cycle per flow (Poisson)
	FaultCount      int            // random faulty nodes, never on flow endpoints
	LinkFaultCount  int            // random faulty (undirected) links, never incident to endpoints
	Warmup          int64          // cycles: messages created earlier are simulated but excluded from latency stats
	Seed            int64          // PRNG seed: same seed, same result
	// FlowPairs, when non-empty, supplies the flow endpoints explicitly
	// (trace-driven runs); it overrides Pattern and must have Flows entries.
	FlowPairs []gen.Pair
	// Cache, when non-nil, serves container constructions through the
	// memoizing cache instead of building each flow's container directly.
	// It must be bound to a topology with the same M. Cached containers
	// are bit-identical to direct ones, so the simulation result is too;
	// sharing the cache across runs amortizes construction.
	Cache *cache.Cache
	// Obs, when non-nil, receives the run's metrics under the netsim_*
	// namespace: message counters, the delivered-latency histogram,
	// fault-induced path prunes, and in-flight message occupancy. The
	// metrics are registered when Run starts, so a live /metrics endpoint
	// shows the run progressing. Nil disables metric collection entirely.
	Obs *obs.Registry
	// Tracer, when non-nil, records one span per run phase (route
	// precompute, workload build, simulate, aggregate).
	Tracer *obs.Tracer
}

// FlowStats aggregates one flow's traffic. Latency percentiles are
// nearest-rank over the flow's measured (post-warmup) deliveries, in
// cycles; all zero when the flow had no measured delivery.
type FlowStats struct {
	Generated  int
	Delivered  int
	Dropped    int
	AvgLatency float64 // over measured (post-warmup) deliveries; 0 if none
	P50Latency int64
	P95Latency int64
	P99Latency int64
}

// Result aggregates a run.
type Result struct {
	Generated    int     // messages created
	Delivered    int     // messages fully received
	Dropped      int     // messages lost to faults
	AvgLatency   float64 // mean delivery latency in cycles
	P50Latency   int64   // median latency
	P95Latency   int64   // 95th percentile latency
	P99Latency   int64   // 99th percentile latency
	MaxLatency   int64   // worst delivery latency
	Makespan     int64   // cycle of last delivery
	FlitsMoved   int64   // total flit·hops of delivered traffic
	Throughput   float64 // delivered flits per cycle (network goodput)
	AvgPathHops  float64 // mean hops of employed paths
	FaultBlocked int     // messages that found every path faulty
	// HottestLinkBusy is the busiest directed link's occupied cycles;
	// HottestLinkShare relates it to the makespan (1.0 = saturated).
	HottestLinkBusy  int64
	HottestLinkShare float64
	PerFlow          []FlowStats
}

// dessimSwitch maps the public switching constant onto the generic engine's.
func dessimSwitch(s Switching) dessim.Switching {
	if s == CutThrough {
		return dessim.CutThrough
	}
	return dessim.StoreAndForward
}

// Validate checks a configuration.
func (cfg Config) Validate() error {
	if cfg.M < hhc.MinM || cfg.M > hhc.MaxM {
		return fmt.Errorf("netsim: M=%d out of range", cfg.M)
	}
	if cfg.Flows <= 0 || cfg.MessagesPerFlow <= 0 {
		return errors.New("netsim: Flows and MessagesPerFlow must be positive")
	}
	if cfg.MessageFlits <= 0 {
		return errors.New("netsim: MessageFlits must be positive")
	}
	if cfg.ArrivalRate <= 0 {
		return errors.New("netsim: ArrivalRate must be positive")
	}
	if cfg.FaultCount < 0 || cfg.LinkFaultCount < 0 {
		return errors.New("netsim: fault counts must be non-negative")
	}
	if cfg.Switch != StoreAndForward && cfg.Switch != CutThrough {
		return fmt.Errorf("netsim: unknown switching model %v", cfg.Switch)
	}
	if cfg.Warmup < 0 {
		return errors.New("netsim: Warmup must be non-negative")
	}
	switch cfg.Pattern {
	case PatternUniform, PatternHotspot, PatternComplement:
	case PatternBitReverse:
		if cfg.M > 5 {
			return errors.New("netsim: bit-reverse pattern needs node IDs to fit uint64 (m <= 5)")
		}
	default:
		return fmt.Errorf("netsim: unknown traffic pattern %v", cfg.Pattern)
	}
	if len(cfg.FlowPairs) > 0 && len(cfg.FlowPairs) != cfg.Flows {
		return fmt.Errorf("netsim: %d explicit flow pairs for %d flows", len(cfg.FlowPairs), cfg.Flows)
	}
	if cfg.Cache != nil && cfg.Cache.M() != cfg.M {
		return fmt.Errorf("netsim: cache bound to m=%d, config has M=%d", cfg.Cache.M(), cfg.M)
	}
	return nil
}

// flowPairsFor draws the flow endpoints for the configured pattern, or
// returns the explicit trace-driven pairs.
func flowPairsFor(g *hhc.Graph, cfg Config) []gen.Pair {
	if len(cfg.FlowPairs) > 0 {
		return cfg.FlowPairs
	}
	switch cfg.Pattern {
	case PatternHotspot:
		r := rand.New(rand.NewSource(cfg.Seed ^ 0x407))
		dst := g.RandomNode(r)
		pairs := make([]gen.Pair, 0, cfg.Flows)
		for len(pairs) < cfg.Flows {
			src := g.RandomNode(r)
			if src != dst {
				pairs = append(pairs, gen.Pair{U: src, V: dst})
			}
		}
		return pairs
	case PatternComplement:
		return gen.Pairs(g, cfg.Flows, gen.Antipodal, cfg.Seed^0x5eed)
	case PatternBitReverse:
		r := rand.New(rand.NewSource(cfg.Seed ^ 0xb17))
		n := uint(g.N())
		pairs := make([]gen.Pair, 0, cfg.Flows)
		for len(pairs) < cfg.Flows {
			src := g.RandomNode(r)
			id := g.ID(src)
			var rev uint64
			for i := uint(0); i < n; i++ {
				rev |= (id >> i & 1) << (n - 1 - i)
			}
			dst := g.NodeFromID(rev)
			if src != dst {
				pairs = append(pairs, gen.Pair{U: src, V: dst})
			}
		}
		return pairs
	default:
		return gen.Pairs(g, cfg.Flows, gen.Uniform, cfg.Seed^0x5eed)
	}
}

// Run executes the simulation and returns aggregate metrics.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	g, err := hhc.New(cfg.M)
	if err != nil {
		return Result{}, err
	}
	metrics := newRunMetrics(cfg.Obs)
	runSpan := cfg.startSpan("netsim.run",
		"mode", cfg.Mode.String(),
		"m", fmt.Sprint(cfg.M),
		"flows", fmt.Sprint(cfg.Flows))
	defer runSpan.end()
	r := rand.New(rand.NewSource(cfg.Seed))

	// Flows: fixed endpoint pairs drawn per the traffic pattern.
	pairs := flowPairsFor(g, cfg)
	if len(cfg.FlowPairs) > 0 {
		for i, pr := range pairs {
			if !g.Contains(pr.U) || !g.Contains(pr.V) || pr.U == pr.V {
				return Result{}, fmt.Errorf("netsim: explicit flow pair %d invalid: %s -> %s", i, g.FormatNode(pr.U), g.FormatNode(pr.V))
			}
		}
	}
	metrics.setFlows(cfg.Flows)
	var protect []hhc.Node
	for _, p := range pairs {
		protect = append(protect, p.U, p.V)
	}
	var faults map[hhc.Node]bool
	if cfg.FaultCount > 0 {
		faults = gen.FaultSet(g, cfg.FaultCount, protect, cfg.Seed^0xfa011)
	}
	var linkFaults map[edgeKey]bool
	if cfg.LinkFaultCount > 0 {
		linkFaults = randomLinkFaults(g, cfg.LinkFaultCount, protect, cfg.Seed^0x11f4)
	}

	// Precompute the path set of each flow according to the mode, through
	// the memoizing cache when one is configured.
	construct := core.Constructor(core.DisjointPathsOpt)
	if cfg.Cache != nil {
		construct = cfg.Cache.Constructor()
	}
	routeSpan := cfg.startSpan("netsim.routes")
	flowPaths := make([][][]hhc.Node, cfg.Flows)
	var res Result
	var hopSum, hopCnt int64
	for i, p := range pairs {
		paths, pruned, err := flowRoutes(g, p.U, p.V, cfg.Mode, faults, linkFaults, construct)
		if err != nil {
			return Result{}, err
		}
		metrics.addPrunes(int64(pruned))
		flowPaths[i] = paths
		for _, path := range paths {
			hopSum += int64(len(path) - 1)
			hopCnt++
		}
	}
	routeSpan.end()
	if hopCnt > 0 {
		res.AvgPathHops = float64(hopSum) / float64(hopCnt)
	}

	// Build the packet workload (Poisson arrivals per flow) for the generic
	// discrete-event engine; message metadata stays on this side.
	workloadSpan := cfg.startSpan("netsim.workload")
	type msgMeta struct {
		flow     int
		created  int64
		measured bool
	}
	var metas []msgMeta
	var packets []dessim.Packet[hhc.Node]
	res.PerFlow = make([]FlowStats, cfg.Flows)
	for i := range pairs {
		t := 0.0
		for k := 0; k < cfg.MessagesPerFlow; k++ {
			t += r.ExpFloat64() / cfg.ArrivalRate
			created := int64(t)
			res.Generated++
			res.PerFlow[i].Generated++
			paths := flowPaths[i]
			if len(paths) == 0 {
				res.Dropped++
				res.FaultBlocked++
				res.PerFlow[i].Dropped++
				continue
			}
			id := len(metas)
			metas = append(metas, msgMeta{flow: i, created: created, measured: created >= cfg.Warmup})
			switch cfg.Mode {
			case MultiPathStripe:
				per := int64((cfg.MessageFlits + len(paths) - 1) / len(paths))
				for _, path := range paths {
					packets = append(packets, dessim.Packet[hhc.Node]{
						Route: path, Flits: per, Release: created, Msg: id,
					})
					res.FlitsMoved += per * int64(len(path)-1)
				}
			default:
				packets = append(packets, dessim.Packet[hhc.Node]{
					Route: paths[0], Flits: int64(cfg.MessageFlits), Release: created, Msg: id,
				})
				res.FlitsMoved += int64(cfg.MessageFlits) * int64(len(paths[0])-1)
			}
		}
	}

	workloadSpan.end()

	simSpan := cfg.startSpan("netsim.simulate", "packets", fmt.Sprint(len(packets)))
	done, links, err := dessim.SimulateEx(packets, len(metas), dessimSwitch(cfg.Switch))
	simSpan.end()
	if err != nil {
		return Result{}, err
	}
	if len(links) > 0 {
		res.HottestLinkBusy = links[0].Busy
	}

	aggSpan := cfg.startSpan("netsim.aggregate")
	var latencies []float64
	flowLats := make([][]float64, cfg.Flows)
	createdAt := make([]int64, len(metas))
	for id, meta := range metas {
		doneAt := done[id]
		createdAt[id] = meta.created
		res.Delivered++
		res.PerFlow[meta.flow].Delivered++
		lat := doneAt - meta.created
		if meta.measured {
			latencies = append(latencies, float64(lat))
			flowLats[meta.flow] = append(flowLats[meta.flow], float64(lat))
			metrics.observeLatency(lat)
			if lat > res.MaxLatency {
				res.MaxLatency = lat
			}
		}
		if doneAt > res.Makespan {
			res.Makespan = doneAt
		}
	}

	if len(latencies) > 0 {
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		res.AvgLatency = sum / float64(len(latencies))
		qs := stats.Percentiles(latencies, 50, 95, 99)
		res.P50Latency, res.P95Latency, res.P99Latency = int64(qs[0]), int64(qs[1]), int64(qs[2])
	}
	if res.Makespan > 0 {
		res.Throughput = float64(res.Delivered*cfg.MessageFlits) / float64(res.Makespan)
		res.HottestLinkShare = float64(res.HottestLinkBusy) / float64(res.Makespan)
	}
	for i := range res.PerFlow {
		lats := flowLats[i]
		if len(lats) == 0 {
			continue
		}
		var sum float64
		for _, l := range lats {
			sum += l
		}
		res.PerFlow[i].AvgLatency = sum / float64(len(lats))
		qs := stats.Percentiles(lats, 50, 95, 99)
		res.PerFlow[i].P50Latency = int64(qs[0])
		res.PerFlow[i].P95Latency = int64(qs[1])
		res.PerFlow[i].P99Latency = int64(qs[2])
	}
	metrics.record(res, createdAt, done)
	aggSpan.end()
	return res, nil
}

// edgeKey is an undirected link identifier: endpoints stored in canonical
// (X, Y) order.
type edgeKey struct{ a, b hhc.Node }

func canonicalEdge(u, v hhc.Node) edgeKey {
	if u.X > v.X || (u.X == v.X && u.Y > v.Y) {
		u, v = v, u
	}
	return edgeKey{a: u, b: v}
}

// randomLinkFaults draws count distinct faulty links, none incident to a
// protected node (so flows are never cut off at the first hop by fiat).
func randomLinkFaults(g *hhc.Graph, count int, protect []hhc.Node, seed int64) map[edgeKey]bool {
	r := rand.New(rand.NewSource(seed))
	prot := make(map[hhc.Node]bool, len(protect))
	for _, p := range protect {
		prot[p] = true
	}
	faults := make(map[edgeKey]bool, count)
	var buf []hhc.Node
	for len(faults) < count {
		u := g.RandomNode(r)
		if prot[u] {
			continue
		}
		buf = g.Neighbors(u, buf[:0])
		v := buf[r.Intn(len(buf))]
		if prot[v] {
			continue
		}
		faults[canonicalEdge(u, v)] = true
	}
	return faults
}

// flowRoutes computes the path set used by one flow under the given mode;
// an empty set means the flow is completely blocked by faults. pruned
// counts the paths faults removed from consideration — the fault-induced
// reroutes the observability layer reports. The m+1 container paths are
// node-disjoint, hence also link-disjoint, so the f <= m survival
// guarantee covers link faults too.
func flowRoutes(g *hhc.Graph, u, v hhc.Node, mode RoutingMode, faults map[hhc.Node]bool, linkFaults map[edgeKey]bool, construct core.Constructor) (paths [][]hhc.Node, pruned int, err error) {
	switch mode {
	case SinglePath:
		p, err := g.Route(u, v)
		if err != nil {
			return nil, 0, err
		}
		if pathBlocked(p, faults, linkFaults) {
			return nil, 1, nil
		}
		return [][]hhc.Node{p}, 0, nil
	case FaultAwareSingle:
		paths, pruned, err := containerSurvivors(g, u, v, faults, linkFaults, construct)
		if err != nil || len(paths) == 0 {
			return nil, pruned, err
		}
		best := paths[0]
		for _, p := range paths[1:] {
			if len(p) < len(best) {
				best = p
			}
		}
		return [][]hhc.Node{best}, pruned, nil
	case MultiPathStripe:
		return containerSurvivors(g, u, v, faults, linkFaults, construct)
	case AdaptiveLocal:
		res, err := core.AdaptiveRoute(g, u, v, func(w hhc.Node) bool { return faults[w] }, 0)
		if err != nil {
			return nil, 0, err
		}
		if !res.Delivered || pathBlocked(res.Path, nil, linkFaults) {
			return nil, 1, nil
		}
		return [][]hhc.Node{res.Path}, 0, nil
	default:
		return nil, 0, fmt.Errorf("netsim: unknown mode %v", mode)
	}
}

// containerSurvivors constructs the container and filters out paths hit by
// node or link faults, reporting how many were pruned.
func containerSurvivors(g *hhc.Graph, u, v hhc.Node, faults map[hhc.Node]bool, linkFaults map[edgeKey]bool, construct core.Constructor) ([][]hhc.Node, int, error) {
	paths, err := construct(g, u, v, core.Options{})
	if err != nil {
		return nil, 0, err
	}
	var out [][]hhc.Node
	for _, p := range paths {
		if !pathBlocked(p, faults, linkFaults) {
			out = append(out, p)
		}
	}
	return out, len(paths) - len(out), nil
}

func pathBlocked(p []hhc.Node, faults map[hhc.Node]bool, linkFaults map[edgeKey]bool) bool {
	if faults != nil {
		for _, w := range p[1 : len(p)-1] {
			if faults[w] {
				return true
			}
		}
	}
	if linkFaults != nil {
		for i := 1; i < len(p); i++ {
			if linkFaults[canonicalEdge(p[i-1], p[i])] {
				return true
			}
		}
	}
	return false
}

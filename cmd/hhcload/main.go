// Command hhcload drives a pathsvc server (cmd/hhcd) with a configurable
// workload and reports throughput plus latency percentiles. It runs closed
// loop (every connection fires back to back) or open loop (-qps paces
// arrivals against a target rate), and doubles as the CI smoke client: it
// exits non-zero when no query completes or any protocol error occurs —
// control outcomes (overload, deadline, shutdown) are expected under
// pressure and reported separately.
//
// Usage:
//
//	hhcload -addr 127.0.0.1:9091 -conns 8 -duration 3s
//	hhcload -addr 127.0.0.1:9091 -qps 2000 -pairs 4        # open loop, hot pair set
//	hhcload -selfserve -m 4 -duration 2s -json BENCH_pathsvc.json
//	hhcload -selfserve -proto v2 -pipeline 16 -json BENCH_pathsvc_v2.json
//	hhcload -cluster 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 -duration 3s
//
// -cluster sprays connections round-robin across a peer list instead of a
// single -addr; the report and JSON gain a per-peer breakdown (qps, latency
// percentiles, errors) plus the completed-throughput skew ratio.
//
// -proto selects the wire protocol (v1 JSON, v2 binary, or auto to
// negotiate the highest the server speaks), and -pipeline keeps that many
// requests in flight per connection instead of running each connection in
// lockstep. Connections self-heal: a poisoned client (server restart,
// stream desync) is redialed and the run continues, with the redial count
// reported.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/hhc"
	"repro/internal/pathsvc"
	"repro/internal/stats"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9091", "pathsvc server address")
	selfserve := flag.Bool("selfserve", false, "start an in-process server on a loopback port and load it (no hhcd needed)")
	m := flag.Int("m", 4, "son-cube dimension of the -selfserve server (ignored with a remote -addr)")
	queue := flag.Int("queue", pathsvc.DefaultQueueDepth, "admission queue depth of the -selfserve server")
	conns := flag.Int("conns", 8, "concurrent client connections")
	proto := flag.String("proto", "auto", "wire protocol: v1 (JSON), v2 (binary), or auto (negotiate)")
	pipeline := flag.Int("pipeline", 1, "in-flight requests per connection (1 = lockstep)")
	qps := flag.Float64("qps", 0, "target offered load in queries/sec across all connections (0 = closed loop)")
	duration := flag.Duration("duration", 2*time.Second, "load duration")
	pairs := flag.Int("pairs", 16, "distinct source/destination pairs in the pool (small pools create duplicate in-flight queries)")
	op := flag.String("op", "paths", "query kind: paths|route|batch")
	batch := flag.Int("batch", 8, "pairs per request when -op batch")
	faults := flag.Int("faults", 2, "declared faults per request when -op route")
	maxPaths := flag.Int("maxpaths", 0, "request only the first k container paths (0 = all)")
	deadline := flag.Duration("deadline", 0, "per-request deadline sent to the server (0 = server default)")
	seed := flag.Int64("seed", 1, "workload seed")
	clusterSpec := flag.String("cluster", "", "spray connections round-robin across this comma-separated peer list (host:port,...); overrides -addr")
	jsonPath := flag.String("json", "", "write the report as JSON to this file ('-' = stdout)")
	interval := flag.Duration("interval", 0, "emit one JSONL timeline line (deltas + latency percentiles) per this interval (0 = off)")
	slo := flag.String("slo", "", "gate the run on a service-level objective, e.g. 'p99<50ms,err<1%' (violation = exit 3)")
	obsf := cliutil.RegisterObsFlags(flag.CommandLine)
	flag.Parse()

	err := obsf.Activate()
	if err == nil {
		err = run(os.Stdout, flag.Args(), loadOpts{
			addr: *addr, selfserve: *selfserve, m: *m, queue: *queue,
			conns: *conns, proto: *proto, pipeline: *pipeline,
			qps: *qps, duration: *duration, pairs: *pairs,
			op: *op, batch: *batch, faults: *faults, maxPaths: *maxPaths,
			deadline: *deadline, seed: *seed, jsonPath: *jsonPath,
			interval: *interval, slo: *slo, cluster: *clusterSpec,
		})
	}
	if cerr := obsf.Close(os.Stdout); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hhcload:", err)
		if errors.Is(err, errSLO) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

type loadOpts struct {
	addr          string
	selfserve     bool
	m, queue      int
	conns         int
	proto         string
	pipeline      int
	qps           float64
	duration      time.Duration
	pairs         int
	op            string
	batch, faults int
	maxPaths      int
	deadline      time.Duration
	seed          int64
	jsonPath      string
	interval      time.Duration
	slo           string
	cluster       string
}

// report is the machine-readable run summary (the BENCH_pathsvc.json shape).
type report struct {
	Op             string  `json:"op"`
	Proto          int     `json:"proto"`
	Pipeline       int     `json:"pipeline"`
	Conns          int     `json:"conns"`
	TargetQPS      float64 `json:"target_qps"`
	DurationSec    float64 `json:"duration_sec"`
	Sent           int64   `json:"sent"`
	Completed      int64   `json:"completed"`
	Degraded       int64   `json:"degraded"`
	Overload       int64   `json:"overload"`
	Deadline       int64   `json:"deadline"`
	Shutdown       int64   `json:"shutdown"`
	Failed         int64   `json:"failed"`
	Reconnects     int64   `json:"reconnects"`
	Poisoned       int64   `json:"poisoned"`
	ProtocolErrors int64   `json:"protocol_errors"`
	AchievedQPS    float64 `json:"achieved_qps"`
	// Open-loop pacer accounting (zero in closed-loop runs): OfferedQPS is
	// the rate the pacer actually emitted; PacerDropped counts tokens shed
	// because every worker was already busy, i.e. how far the client side
	// fell short of the requested arrival rate.
	OfferedQPS   float64 `json:"offered_qps,omitempty"`
	PacerDropped int64   `json:"pacer_dropped,omitempty"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MeanMs       float64 `json:"mean_ms"`
	// Server-side timing echoed in responses (hhcd reports queue wait and
	// construction time per request): where client-observed latency was
	// actually spent. Zero when the server predates the timing fields.
	SrvQueueP50Ms float64 `json:"srv_queue_p50_ms"`
	SrvQueueP95Ms float64 `json:"srv_queue_p95_ms"`
	SrvExecP50Ms  float64 `json:"srv_exec_p50_ms"`
	SrvExecP95Ms  float64 `json:"srv_exec_p95_ms"`
	// SLO gate verdict (present only when -slo was given): the spec, the
	// worst burn rate across conditions, and the per-condition breakdown.
	SLO        string      `json:"slo,omitempty"`
	SLOBurn    float64     `json:"slo_burn,omitempty"`
	SLOResults []sloResult `json:"slo_results,omitempty"`
	// Cluster spray breakdown (present only with -cluster): one entry per
	// peer plus the completed-throughput skew ratio (max/min across peers;
	// 0 when a peer completed nothing).
	Peers     []peerReport `json:"peers,omitempty"`
	SkewRatio float64      `json:"skew_ratio,omitempty"`
}

// peerReport is one peer's slice of a -cluster run. The srv columns are
// the queue/exec timing this peer echoed in its responses; on a forwarded
// answer that is the owner's relayed timing, so a hot shard shows up in
// every requester's srv-exec column, not just its own.
type peerReport struct {
	Addr          string  `json:"addr"`
	Conns         int     `json:"conns"`
	Completed     int64   `json:"completed"`
	Errors        int64   `json:"errors"`
	QPS           float64 `json:"qps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	SrvQueueP50Ms float64 `json:"srv_queue_p50_ms,omitempty"`
	SrvExecP50Ms  float64 `json:"srv_exec_p50_ms,omitempty"`
}

// tally is the shared outcome ledger the workers update atomically.
type tally struct {
	sent, completed, degraded    atomic.Int64
	overload, deadline, shutdown atomic.Int64
	failed, protocolErrors       atomic.Int64
	// reconnects counts every redial (dial failures and poison recoveries);
	// poisoned counts only ErrClientBroken events, so the two separate
	// "server was unreachable" from "the stream desynced mid-run".
	reconnects, poisoned atomic.Int64
	// Pacer accounting: tokens emitted vs dropped on a full buffer.
	paceSent, paceDropped atomic.Int64
}

// connSamples is one connection's latency ledger: client-observed
// end-to-end times plus the server-side queue/exec breakdown it echoed.
// errs counts every non-completed outcome (control or failure), which the
// -cluster breakdown attributes to the worker's peer.
type connSamples struct {
	lat, queue, exec []float64
	errs             int64
}

func run(w io.Writer, args []string, o loadOpts) error {
	if err := cliutil.NoTrailingArgs(args); err != nil {
		return err
	}
	switch o.op {
	case "paths", "route", "batch":
	default:
		return fmt.Errorf("-op %q: want paths|route|batch", o.op)
	}
	if o.conns < 1 || o.pairs < 1 || o.duration <= 0 {
		return fmt.Errorf("-conns %d / -pairs %d / -duration %s out of range: all must be positive",
			o.conns, o.pairs, o.duration)
	}
	if o.pipeline == 0 {
		o.pipeline = 1 // zero value = lockstep, same as the flag default
	}
	if o.pipeline < 1 {
		return fmt.Errorf("-pipeline %d out of range: must be positive", o.pipeline)
	}
	if o.interval < 0 {
		return fmt.Errorf("-interval %s out of range: must be non-negative", o.interval)
	}
	var sloConds []sloCond
	if o.slo != "" {
		var err error
		if sloConds, err = parseSLO(o.slo); err != nil {
			return err
		}
	}
	var dialOpts pathsvc.DialOptions
	switch o.proto {
	case "auto", "":
		dialOpts.Proto = 0
	case "v1":
		dialOpts.Proto = pathsvc.ProtocolVersion
	case "v2":
		dialOpts.Proto = pathsvc.ProtocolV2
	default:
		return fmt.Errorf("-proto %q: want v1|v2|auto", o.proto)
	}

	// -cluster sprays connections round-robin across a peer list; the first
	// peer doubles as the Info-probe target (all peers serve the same m).
	var peerAddrs []string
	if o.cluster != "" {
		if o.selfserve {
			return errors.New("-cluster and -selfserve are mutually exclusive")
		}
		var perr error
		if peerAddrs, perr = cluster.ParsePeers(o.cluster); perr != nil {
			return fmt.Errorf("-cluster: %w", perr)
		}
	}

	addr := o.addr
	if len(peerAddrs) > 0 {
		addr = peerAddrs[0]
	}
	var local *pathsvc.Server
	if o.selfserve {
		if err := cliutil.ValidateM(o.m); err != nil {
			return err
		}
		srv, ln, err := startLocal(o.m, o.queue)
		if err != nil {
			return err
		}
		local = srv
		addr = ln
		fmt.Fprintf(w, "hhcload: self-serving m=%d on %s\n", o.m, addr)
	}

	// Discover the served topology so the pair pool matches it.
	probe, err := pathsvc.Dial(addr)
	if err != nil {
		return err
	}
	info, err := probe.Info()
	if err != nil {
		probe.Close()
		return fmt.Errorf("info query: %w", err)
	}
	_ = probe.Close()
	g, err := hhc.New(info.M)
	if err != nil {
		return err
	}
	if o.op == "route" {
		// The fault picker draws nodes distinct from both endpoints, so the
		// topology must have that many to give; reject impossible counts
		// instead of spinning forever in draw.
		if o.faults < 0 {
			return fmt.Errorf("-faults %d out of range: must be non-negative", o.faults)
		}
		if n, ok := g.NumNodes(); ok && uint64(o.faults) > n-2 {
			return fmt.Errorf("-faults %d exceeds the %d non-endpoint nodes of the m=%d topology",
				o.faults, n-2, info.M)
		}
	}
	pool := gen.Pairs(g, o.pairs, gen.Uniform, o.seed)

	// One self-healing handle per connection; -pipeline workers share each
	// one, keeping that many requests in flight on the same stream. The
	// first dial also resolves the negotiated protocol for the report.
	reconns := make([]*pathsvc.Reconn, o.conns)
	wireProto := dialOpts.Proto
	for i := range reconns {
		target := addr
		if len(peerAddrs) > 0 {
			target = peerAddrs[i%len(peerAddrs)]
		}
		reconns[i] = pathsvc.NewReconn(target, dialOpts)
		defer reconns[i].Close()
		c, err := reconns[i].Client()
		if err != nil {
			return err
		}
		wireProto = c.Proto()
	}

	// Open-loop pacing: one token per intended arrival. Closed loop skips
	// the pacer and lets every connection fire back to back.
	var tl tally
	var tokens chan struct{}
	stop := make(chan struct{})
	if o.qps > 0 {
		tokens = make(chan struct{}, 4096)
		go pace(tokens, stop, o.qps, &tl)
	}

	workers := o.conns * o.pipeline
	samples := make([]connSamples, workers)
	var wg sync.WaitGroup
	begin := time.Now()
	end := begin.Add(o.duration)

	// -interval: a background flusher emits one JSONL line per interval
	// while the workers run.
	var tw *timeline
	var tlDone chan struct{}
	if o.interval > 0 {
		tw = &timeline{}
		tlDone = make(chan struct{})
		go runTimeline(w, &tl, tw, o.interval, begin, stop, tlDone)
	}

	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			samples[i] = drive(reconns[i/o.pipeline], g, pool, o, &tl, tw, tokens, end, o.seed+int64(i)+1)
		}(i)
	}
	wg.Wait()
	close(stop)
	if tlDone != nil {
		<-tlDone // the report must not interleave with a timeline line
	}
	elapsed := time.Since(begin)

	var all, queue, exec []float64
	for _, s := range samples {
		all = append(all, s.lat...)
		queue = append(queue, s.queue...)
		exec = append(exec, s.exec...)
	}
	rep := report{
		Op: o.op, Proto: wireProto, Pipeline: o.pipeline,
		Conns: o.conns, TargetQPS: o.qps,
		DurationSec:    elapsed.Seconds(),
		Sent:           tl.sent.Load(),
		Completed:      tl.completed.Load(),
		Degraded:       tl.degraded.Load(),
		Overload:       tl.overload.Load(),
		Deadline:       tl.deadline.Load(),
		Shutdown:       tl.shutdown.Load(),
		Failed:         tl.failed.Load(),
		Reconnects:     tl.reconnects.Load(),
		Poisoned:       tl.poisoned.Load(),
		ProtocolErrors: tl.protocolErrors.Load(),
		PacerDropped:   tl.paceDropped.Load(),
	}
	rep.AchievedQPS = float64(rep.Completed) / elapsed.Seconds()
	if o.qps > 0 {
		rep.OfferedQPS = float64(tl.paceSent.Load()) / elapsed.Seconds()
	}
	if len(all) > 0 {
		ps := stats.Percentiles(all, 50, 95, 99)
		rep.P50Ms, rep.P95Ms, rep.P99Ms = ps[0], ps[1], ps[2]
		rep.MeanMs = stats.SummarizeFloats(all).Mean
	}
	if len(queue) > 0 {
		qs := stats.Percentiles(queue, 50, 95)
		rep.SrvQueueP50Ms, rep.SrvQueueP95Ms = qs[0], qs[1]
	}
	if len(exec) > 0 {
		es := stats.Percentiles(exec, 50, 95)
		rep.SrvExecP50Ms, rep.SrvExecP95Ms = es[0], es[1]
	}
	if len(peerAddrs) > 0 {
		rep.Peers, rep.SkewRatio = peerBreakdown(peerAddrs, samples, o, elapsed)
	}
	var sloWorst float64
	if len(sloConds) > 0 {
		rep.SLO = o.slo
		rep.SLOResults, sloWorst = evalSLO(sloConds, rep)
		rep.SLOBurn = sloWorst
	}
	printReport(w, rep)

	if local != nil {
		if err := drainLocal(w, local); err != nil {
			return err
		}
	}
	if o.jsonPath != "" {
		if err := writeJSON(w, o.jsonPath, rep); err != nil {
			return err
		}
	}
	if rep.ProtocolErrors > 0 {
		return fmt.Errorf("%d protocol errors", rep.ProtocolErrors)
	}
	if rep.Completed == 0 {
		return errors.New("no query completed")
	}
	if sloWorst > 1 {
		return fmt.Errorf("%w: %q burned %.2fx its budget", errSLO, o.slo, sloWorst)
	}
	return nil
}

// peerBreakdown attributes each worker's samples to its peer — worker i
// drives connection i/pipeline, and connection c dials
// peerAddrs[c%len(peerAddrs)] — then derives per-peer throughput, latency
// percentiles, and the completed-count skew ratio.
func peerBreakdown(peerAddrs []string, samples []connSamples, o loadOpts,
	elapsed time.Duration) ([]peerReport, float64) {
	peers := make([]peerReport, len(peerAddrs))
	lats := make([][]float64, len(peerAddrs))
	queues := make([][]float64, len(peerAddrs))
	execs := make([][]float64, len(peerAddrs))
	for i := range peers {
		peers[i].Addr = peerAddrs[i]
	}
	for c := 0; c < o.conns; c++ {
		peers[c%len(peerAddrs)].Conns++
	}
	for i, s := range samples {
		p := (i / o.pipeline) % len(peerAddrs)
		peers[p].Completed += int64(len(s.lat))
		peers[p].Errors += s.errs
		lats[p] = append(lats[p], s.lat...)
		queues[p] = append(queues[p], s.queue...)
		execs[p] = append(execs[p], s.exec...)
	}
	minC, maxC := int64(-1), int64(0)
	for i := range peers {
		peers[i].QPS = float64(peers[i].Completed) / elapsed.Seconds()
		if len(lats[i]) > 0 {
			ps := stats.Percentiles(lats[i], 50, 95, 99)
			peers[i].P50Ms, peers[i].P95Ms, peers[i].P99Ms = ps[0], ps[1], ps[2]
		}
		if len(queues[i]) > 0 {
			peers[i].SrvQueueP50Ms = stats.Percentiles(queues[i], 50)[0]
		}
		if len(execs[i]) > 0 {
			peers[i].SrvExecP50Ms = stats.Percentiles(execs[i], 50)[0]
		}
		if minC < 0 || peers[i].Completed < minC {
			minC = peers[i].Completed
		}
		if peers[i].Completed > maxC {
			maxC = peers[i].Completed
		}
	}
	skew := 0.0
	if minC > 0 {
		skew = float64(maxC) / float64(minC)
	}
	return peers, skew
}

// startLocal binds an in-process server on a loopback port. A deliberately
// aggressive shed threshold makes the control behaviors visible even in a
// short self-contained run.
func startLocal(m, queue int) (*pathsvc.Server, string, error) {
	srv, err := pathsvc.New(pathsvc.Config{M: m, QueueDepth: queue, ShedThreshold: 0.25})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

// drainLocal gracefully shuts the self-served instance down and prints its
// side of the story.
func drainLocal(w io.Writer, srv *pathsvc.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("selfserve drain: %w", err)
	}
	fmt.Fprintf(w, "  server   %s\n", srv.Counters())
	fmt.Fprintf(w, "  cache    %s\n", srv.CacheSnapshot())
	return nil
}

// pace emits one token per intended arrival at the target rate, absorbing
// scheduler jitter by sleeping toward absolute deadlines. It ledgers what
// it emitted vs dropped so the report can state the offered rate the run
// actually achieved instead of silently equating it with -qps.
func pace(tokens chan<- struct{}, stop <-chan struct{}, qps float64, tl *tally) {
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	next := time.Now()
	for {
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop:
			return
		case tokens <- struct{}{}:
			tl.paceSent.Add(1)
		default:
			// Client-side buffer full: the server is slower than the offered
			// rate; dropping the token keeps the pacer honest.
			tl.paceDropped.Add(1)
		}
	}
}

// echo is the server-side telemetry a completed response carried,
// protocol-independent (filled from *Response on v1, ResponseV2 on v2).
type echo struct {
	degraded        bool
	queueNS, execNS int64
}

// drive runs one worker's request loop until the deadline. Workers
// sharing a Reconn pipeline their requests over the same connection; a
// poisoned client is invalidated and the loop redials.
func drive(rc *pathsvc.Reconn, g *hhc.Graph, pool []gen.Pair, o loadOpts,
	tl *tally, tw *timeline, tokens <-chan struct{}, end time.Time, seed int64) connSamples {
	r := rand.New(rand.NewSource(seed))
	var s connSamples
	var req pathsvc.RequestV2
	var resp pathsvc.ResponseV2
	for time.Now().Before(end) {
		if tokens != nil {
			select {
			case <-tokens:
			case <-time.After(time.Until(end)):
				return s
			}
		}
		c, err := rc.Client()
		if err != nil {
			// Server gone (restart window, hard kill). Back off briefly and
			// let the next iteration redial; a server that never returns
			// shows up as "no query completed".
			tl.reconnects.Add(1)
			time.Sleep(50 * time.Millisecond)
			continue
		}
		draw(&req, g, pool[r.Intn(len(pool))], pool, o, r)
		tl.sent.Add(1)
		start := time.Now()
		e, err := issue(c, g, &req, &resp)
		elapsed := time.Since(start)
		if err != nil {
			s.errs++
		}
		switch {
		case err == nil:
			tl.completed.Add(1)
			ms := float64(elapsed) / float64(time.Millisecond)
			s.lat = append(s.lat, ms)
			tw.record(ms)
			if e.degraded {
				tl.degraded.Add(1)
			}
			if e.execNS > 0 {
				s.exec = append(s.exec, float64(e.execNS)/1e6)
				s.queue = append(s.queue, float64(e.queueNS)/1e6)
			}
		case errors.Is(err, pathsvc.ErrOverload):
			tl.overload.Add(1)
		case errors.Is(err, pathsvc.ErrDeadlineExceeded):
			tl.deadline.Add(1)
		case errors.Is(err, pathsvc.ErrClientTimeout):
			// Client-side wait budget expired before any server verdict;
			// account it with the deadline outcomes.
			tl.deadline.Add(1)
		case errors.Is(err, pathsvc.ErrShutdown):
			tl.shutdown.Add(1)
			return s
		case errors.Is(err, pathsvc.ErrClientBroken):
			// Stream desync or server restart poisoned the connection:
			// discard it and redial rather than aborting the run.
			rc.Invalidate(c)
			tl.poisoned.Add(1)
			tl.reconnects.Add(1)
		default:
			var srvErr *pathsvc.ServerError
			if errors.As(err, &srvErr) {
				tl.failed.Add(1)
				continue
			}
			// Transport- or framing-level failure: the smoke must notice.
			tl.protocolErrors.Add(1)
			return s
		}
	}
	return s
}

// draw fills req, the worker's reused request, with one request of the
// configured kind for the pair p.
func draw(req *pathsvc.RequestV2, g *hhc.Graph, p gen.Pair, pool []gen.Pair, o loadOpts, r *rand.Rand) {
	*req = pathsvc.RequestV2{
		U: p.U, V: p.V,
		Faults: req.Faults[:0], Pairs: req.Pairs[:0],
		MaxPaths:  o.maxPaths,
		TimeoutNS: int64(o.deadline),
	}
	switch o.op {
	case "route":
		// Distinct faults avoiding both endpoints; run validated o.faults
		// against the topology size, so this terminates.
		req.Op = pathsvc.OpCodeRoute
		seen := make(map[hhc.Node]bool, o.faults)
		for len(req.Faults) < o.faults {
			f := g.RandomNode(r)
			if f != p.U && f != p.V && !seen[f] {
				seen[f] = true
				req.Faults = append(req.Faults, f)
			}
		}
	case "batch":
		req.Op = pathsvc.OpCodeBatch
		for len(req.Pairs) < o.batch {
			q := pool[r.Intn(len(pool))]
			req.Pairs = append(req.Pairs, pathsvc.NodePair{U: q.U, V: q.V})
		}
	default:
		req.Op = pathsvc.OpCodePaths
	}
}

// issue sends req in the connection's protocol. On v2 it goes out
// node-native and is answered into resp, the worker's reused response, so
// the driver itself stays off the allocator's hot path; on v1 its nodes
// are formatted into a JSON request.
func issue(c *pathsvc.Client, g *hhc.Graph, req *pathsvc.RequestV2, resp *pathsvc.ResponseV2) (echo, error) {
	if c.Proto() >= pathsvc.ProtocolV2 {
		if err := c.DoV2(req, resp); err != nil {
			return echo{}, err
		}
		return echo{degraded: resp.Degraded, queueNS: resp.QueueNS, execNS: resp.ExecNS}, nil
	}
	u, v := g.FormatNode(req.U), g.FormatNode(req.V)
	timeout := time.Duration(req.TimeoutNS)
	var r1 *pathsvc.Response
	var err error
	switch req.Op {
	case pathsvc.OpCodeRoute:
		fs := make([]string, len(req.Faults))
		for i, f := range req.Faults {
			fs[i] = g.FormatNode(f)
		}
		r1, err = c.Route(u, v, fs, timeout)
	case pathsvc.OpCodeBatch:
		bp := make([][2]string, len(req.Pairs))
		for i, q := range req.Pairs {
			bp[i] = [2]string{g.FormatNode(q.U), g.FormatNode(q.V)}
		}
		r1, err = c.Batch(bp, timeout)
	default:
		r1, err = c.Paths(u, v, req.MaxPaths, timeout)
	}
	if err != nil || r1 == nil {
		return echo{}, err
	}
	return echo{degraded: r1.Degraded, queueNS: r1.QueueNS, execNS: r1.ExecNS}, nil
}

func printReport(w io.Writer, r report) {
	fmt.Fprintf(w, "hhcload op=%s proto=v%d pipeline=%d conns=%d target-qps=%g duration=%.2fs\n",
		r.Op, r.Proto, r.Pipeline, r.Conns, r.TargetQPS, r.DurationSec)
	fmt.Fprintf(w, "  sent       %d\n", r.Sent)
	fmt.Fprintf(w, "  completed  %d (%.0f qps)\n", r.Completed, r.AchievedQPS)
	fmt.Fprintf(w, "  degraded   %d\n", r.Degraded)
	fmt.Fprintf(w, "  overload   %d\n", r.Overload)
	fmt.Fprintf(w, "  deadline   %d\n", r.Deadline)
	fmt.Fprintf(w, "  shutdown   %d\n", r.Shutdown)
	fmt.Fprintf(w, "  failed     %d\n", r.Failed)
	fmt.Fprintf(w, "  reconnects %d (poisoned %d)\n", r.Reconnects, r.Poisoned)
	fmt.Fprintf(w, "  proto errs %d\n", r.ProtocolErrors)
	if r.TargetQPS > 0 {
		fmt.Fprintf(w, "  pacer      offered %.0f of %g qps requested (%d tokens dropped)\n",
			r.OfferedQPS, r.TargetQPS, r.PacerDropped)
	}
	fmt.Fprintf(w, "  latency    p50 %.3fms  p95 %.3fms  p99 %.3fms  mean %.3fms\n",
		r.P50Ms, r.P95Ms, r.P99Ms, r.MeanMs)
	if r.SrvQueueP50Ms > 0 || r.SrvExecP50Ms > 0 {
		fmt.Fprintf(w, "  server     queue p50 %.3fms  p95 %.3fms  |  exec p50 %.3fms  p95 %.3fms\n",
			r.SrvQueueP50Ms, r.SrvQueueP95Ms, r.SrvExecP50Ms, r.SrvExecP95Ms)
	}
	if len(r.Peers) > 0 {
		fmt.Fprintf(w, "  cluster    %d peers, completed-skew %.2fx\n", len(r.Peers), r.SkewRatio)
		for _, p := range r.Peers {
			fmt.Fprintf(w, "    %-21s conns %d  completed %d (%.0f qps)  errs %d  p50 %.3fms  p95 %.3fms  p99 %.3fms  srv-q p50 %.3fms  srv-x p50 %.3fms\n",
				p.Addr, p.Conns, p.Completed, p.QPS, p.Errors, p.P50Ms, p.P95Ms, p.P99Ms,
				p.SrvQueueP50Ms, p.SrvExecP50Ms)
		}
	}
	for _, res := range r.SLOResults {
		verdict := "ok"
		if !res.OK {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "  slo        %-12s actual %.4g  limit %.4g  burn %.2fx  %s\n",
			res.Expr, res.Actual, res.Limit, res.Burn, verdict)
	}
}

func writeJSON(w io.Writer, path string, r report) error {
	payload, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	payload = append(payload, '\n')
	if path == "-" {
		_, err = w.Write(payload)
		return err
	}
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	return nil
}

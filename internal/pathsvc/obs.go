package pathsvc

import (
	"strconv"
	"time"

	"repro/internal/hhc"
	"repro/internal/obs"
)

// svcMetrics is the server's obs wiring, quarantined here per the obscost
// convention. The stats.Counters on Server stay the single source of truth
// (always on, atomic); the registry reads them through callbacks at
// snapshot time. Only the latency histograms are obs-native, and their
// observation sites route through the nil-safe methods below.
type svcMetrics struct {
	requestSeconds   *obs.Histogram
	queueWaitSeconds *obs.Histogram

	// Rotating windows behind the cumulative histograms: the same samples,
	// but scoped to the last windowQuantileSpan seconds so /metrics can
	// report live quantiles that recover after a load spike instead of
	// averaging over the process lifetime.
	requestWindow   *obs.WindowHistogram
	queueWaitWindow *obs.WindowHistogram
	execWindow      *obs.WindowHistogram
}

// windowQuantileSpan is how many one-second windows the live quantile
// gauges merge over. Ten seconds is long enough to smooth scrape jitter
// and short enough that a burst stops dominating the readout quickly.
const windowQuantileSpan = 10

// newSvcMetrics registers the pathsvc_* metric set in reg and returns the
// histogram handles the serving path feeds.
func newSvcMetrics(reg *obs.Registry, s *Server) *svcMetrics {
	reg.CounterFunc("pathsvc_conns_total",
		"Client connections accepted.", s.counters.Conns.Load)
	reg.CounterFunc("pathsvc_requests_total",
		"Requests decoded from the wire (any op).", s.counters.Requests.Load)
	reg.CounterFunc("pathsvc_admitted_total",
		"Requests that entered the work queue.", s.counters.Admitted.Load)
	reg.CounterFunc("pathsvc_shed_total",
		"Requests rejected at admission because the queue was full.", s.counters.Shed.Load)
	reg.CounterFunc("pathsvc_coalesced_total",
		"Requests answered by piggybacking on an identical in-flight query.", s.counters.Coalesced.Load)
	reg.CounterFunc("pathsvc_degraded_total",
		"Responses truncated below full container width by queue pressure.", s.counters.Degraded.Load)
	reg.CounterFunc("pathsvc_deadline_exceeded_total",
		"Requests that missed their deadline in queue or in flight.", s.counters.Deadline.Load)
	reg.CounterFunc("pathsvc_failed_total",
		"Requests answered with bad_request, unroutable, or internal.", s.counters.Failed.Load)
	reg.CounterFunc("pathsvc_completed_total",
		"Requests answered successfully.", s.counters.Completed.Load)
	reg.GaugeFunc("pathsvc_queue_depth",
		"Requests waiting in the admission queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("pathsvc_queue_capacity",
		"Admission queue bound.",
		func() float64 { return float64(cap(s.queue)) })
	reg.GaugeFunc("pathsvc_active_workers",
		"Workers currently executing a request.",
		func() float64 { return float64(s.activeWorkers.Load()) })
	reg.GaugeFunc("pathsvc_open_conns",
		"Currently open client connections.",
		func() float64 { return float64(s.openConns()) })
	m := &svcMetrics{
		requestSeconds: reg.Histogram("pathsvc_request_seconds",
			"End-to-end request latency: decode to response written.",
			obs.DefLatencyBuckets),
		queueWaitSeconds: reg.Histogram("pathsvc_queue_wait_seconds",
			"Time admitted requests spent waiting for a worker.",
			obs.DefLatencyBuckets),
		requestWindow: obs.NewWindowHistogram(
			obs.DefaultWindowWidth, obs.DefaultWindowCount, obs.DefLatencyBuckets),
		queueWaitWindow: obs.NewWindowHistogram(
			obs.DefaultWindowWidth, obs.DefaultWindowCount, obs.DefLatencyBuckets),
		execWindow: obs.NewWindowHistogram(
			obs.DefaultWindowWidth, obs.DefaultWindowCount, obs.DefLatencyBuckets),
	}
	// Exemplars tie fat latency buckets to retrievable rids in
	// /debug/requests. Only rid-carrying observations record one, so the
	// untraced hot path keeps its fixed allocation budget.
	m.requestWindow.EnableExemplars(obs.DefaultExemplarK)
	m.execWindow.EnableExemplars(obs.DefaultExemplarK)
	windowed := func(name, help string, w *obs.WindowHistogram) {
		for _, q := range []struct {
			label string
			p     float64
		}{{"p50", 50}, {"p95", 95}, {"p99", 99}} {
			p := q.p
			reg.GaugeFunc(name+`{q="`+q.label+`"}`, help,
				func() float64 { return w.Quantile(windowQuantileSpan, p) })
		}
	}
	windowed("pathsvc_request_seconds_window",
		"End-to-end latency quantile over the last 10s (0 when idle).", m.requestWindow)
	windowed("pathsvc_queue_wait_seconds_window",
		"Queue-wait quantile over the last 10s (0 when idle).", m.queueWaitWindow)
	windowed("pathsvc_exec_seconds_window",
		"Construction/execution quantile over the last 10s (0 when idle).", m.execWindow)
	if s.cfg.Router != nil {
		reg.CounterFunc("cluster_forwarded_total",
			"Non-owned queries answered through their owning peer.", s.counters.Forwarded.Load)
		reg.CounterFunc("cluster_forward_errors_total",
			"Peer forwards that failed (peer down, overloaded, or stream broken).", s.counters.ForwardErrors.Load)
		reg.CounterFunc("cluster_forwarded_in_total",
			"Queries that arrived already forwarded by a peer (hop-guard bit set).", s.counters.ForwardedIn.Load)
		reg.CounterFunc("cluster_degraded_local_total",
			"Non-owned queries answered locally after a failed or shed forward.", s.counters.DegradedLocal.Load)
		reg.CounterFunc("cluster_batch_local_total",
			"Batches answered locally despite containing non-owned pairs (batch forwarding gap).", s.counters.BatchLocal.Load)
	}
	if s.cfg.Peer != "" {
		// Peer-labeled aliases of the core ledger: same callbacks, one extra
		// name each, so a multi-peer scrape can aggregate and slice by
		// instance while single-node deployments keep the unlabeled series.
		peer := `{peer="` + s.cfg.Peer + `"}`
		reg.CounterFunc("pathsvc_requests_total"+peer,
			"Requests decoded from the wire on this cluster peer.", s.counters.Requests.Load)
		reg.CounterFunc("pathsvc_completed_total"+peer,
			"Requests answered successfully on this cluster peer.", s.counters.Completed.Load)
		reg.CounterFunc("pathsvc_failed_total"+peer,
			"Requests answered with an error verdict on this cluster peer.", s.counters.Failed.Load)
		reg.CounterFunc("cluster_forwarded_total"+peer,
			"Non-owned queries this peer answered through their owner.", s.counters.Forwarded.Load)
		reg.CounterFunc("cluster_forwarded_in_total"+peer,
			"Already-forwarded queries this peer answered locally.", s.counters.ForwardedIn.Load)
	}
	return m
}

// observeRequest records one end-to-end latency sample, retained as a
// bucket exemplar when the request carried a rid. Nil-safe.
func (m *svcMetrics) observeRequest(d time.Duration, rid string) {
	if m != nil {
		m.requestSeconds.ObserveDuration(d)
		m.requestWindow.ObserveDurationEx(d, rid)
	}
}

// observeQueueWait records one queue-wait sample. Nil-safe.
func (m *svcMetrics) observeQueueWait(d time.Duration) {
	if m != nil {
		m.queueWaitSeconds.ObserveDuration(d)
		m.queueWaitWindow.ObserveDuration(d)
	}
}

// observeExec records one construction/execution latency sample (shared by
// every coalesced recipient, so recorded once per leader), retained as a
// bucket exemplar when the request carried a rid. Nil-safe.
func (m *svcMetrics) observeExec(d time.Duration, rid string) {
	if m != nil {
		m.execWindow.ObserveDurationEx(d, rid)
	}
}

// RequestExemplars reports the request-latency window's retained
// exemplars: for each occupied bucket, the K most recent rids whose
// end-to-end latency landed there, so a fat tail bucket in /debug/series
// or /debug/cluster links directly to trees in /debug/requests. Empty
// without a registry.
func (s *Server) RequestExemplars() []obs.Exemplar {
	if s.met == nil {
		return nil
	}
	return s.met.requestWindow.Exemplars()
}

// ExecExemplars is RequestExemplars for the construction-time window.
func (s *Server) ExecExemplars() []obs.Exemplar {
	if s.met == nil {
		return nil
	}
	return s.met.execWindow.Exemplars()
}

// reqTrace carries one request's span-tree handles across the serving
// pipeline: admission on the connection's reader goroutine, queue wait and
// execution on a worker, encode wherever the response is rendered. The
// channel send that moves a task to a worker (and the inflightMu critical
// section that attaches a waiter to its leader) provide the happens-before
// edges obs.Req requires. A nil *reqTrace is the disabled path; every
// method is nil-receiver safe, so the serving code never branches on
// whether request tracing is on.
type reqTrace struct {
	q     *obs.Req
	admit *obs.Span
	fwd   *obs.Span
	queue *obs.Span
	exec  *obs.Span
	enc   *obs.Span
}

// beginTrace opens a request trace with its admission span. origin is the
// forwarding peer's address on a cluster-forwarded request ("" on direct
// client traffic): the tree is tagged with it, which routes it out of the
// client-facing slow bucket and marks it as the owner-side half of a
// cross-peer stitch. Returns nil when request tracing is disabled.
func (s *Server) beginTrace(op, rid, remote, origin string) *reqTrace {
	if s.cfg.Requests == nil {
		return nil
	}
	q := s.cfg.Requests.StartRequest(op, rid, obs.String("peer", remote))
	q.SetOrigin(origin)
	return &reqTrace{q: q, admit: q.StartSpan(obs.PhaseAdmission)}
}

// id returns the trace's request id ("" when tracing is off), which the
// response echoes so clients can correlate against /debug/requests.
func (t *reqTrace) id() string {
	if t == nil {
		return ""
	}
	return t.q.ID()
}

// setAttr annotates the request (endpoints, widths, batch sizes).
func (t *reqTrace) setAttr(key, value string) {
	if t != nil {
		t.q.SetAttr(key, value)
	}
}

// setQuery annotates a traced request with its endpoints (paths, route)
// or its pair count (batch). Rendering runs only when a tracer is
// recording: node formatting costs allocations the hot path must not pay.
func (t *reqTrace) setQuery(op string, u, v hhc.Node, pairs int) {
	if t == nil {
		return
	}
	switch op {
	case OpPaths, OpRoute:
		t.q.SetAttr("u", hhc.FormatNodeWire(u))
		t.q.SetAttr("v", hhc.FormatNodeWire(v))
	case OpBatch:
		t.q.SetAttr("pairs", strconv.Itoa(pairs))
	}
}

// setWidth records the container width a traced request was served.
func (t *reqTrace) setWidth(k int) {
	if t != nil {
		t.q.SetAttr("width", strconv.Itoa(k))
	}
}

func (t *reqTrace) endAdmission() {
	if t != nil && t.admit != nil {
		t.admit.End()
		t.admit = nil
	}
}

// startForward / endForward bracket the peer hop of a cluster-forwarded
// query (between admission and either the owner's answer or the local
// fallback's queue span).
func (t *reqTrace) startForward() {
	if t != nil {
		t.fwd = t.q.StartSpan(obs.PhaseForward)
	}
}

func (t *reqTrace) endForward() {
	if t != nil && t.fwd != nil {
		t.fwd.End()
		t.fwd = nil
	}
}

// endForwardWith closes the forward span annotated with the hop's remote
// timing: which peer answered, plus remote_queue / remote_exec / wire
// child spans synthesized from the owner's relayed queue_ns and exec_ns —
// so the hop decomposes without scraping the owner. The children are laid
// out sequentially from the span's start; wire is the residue of the
// measured hop not explained by the remote phases (clamped at zero
// against clock jitter).
func (t *reqTrace) endForwardWith(peer string, queueNS, execNS int64) {
	if t == nil || t.fwd == nil {
		return
	}
	fwd := t.fwd
	if peer != "" {
		fwd.SetAttr("peer", peer)
	}
	fwd.End()
	t.fwd = nil
	if queueNS <= 0 && execNS <= 0 {
		return
	}
	at := fwd.Start
	if queueNS > 0 {
		fwd.Children = append(fwd.Children,
			&obs.Span{Name: obs.PhaseRemoteQueue, Start: at, Dur: queueNS})
		at += queueNS
	}
	if execNS > 0 {
		fwd.Children = append(fwd.Children,
			&obs.Span{Name: obs.PhaseRemoteExec, Start: at, Dur: execNS})
		at += execNS
	}
	if wire := fwd.Dur - queueNS - execNS; wire > 0 {
		fwd.Children = append(fwd.Children,
			&obs.Span{Name: obs.PhaseWire, Start: at, Dur: wire})
	}
}

func (t *reqTrace) startQueue() {
	if t != nil {
		t.queue = t.q.StartSpan(obs.PhaseQueue)
	}
}

func (t *reqTrace) endQueue() {
	if t != nil && t.queue != nil {
		t.queue.End()
		t.queue = nil
	}
}

func (t *reqTrace) startExec() {
	if t != nil {
		t.exec = t.q.StartSpan(obs.PhaseExec)
	}
}

func (t *reqTrace) endExec() {
	if t != nil && t.exec != nil {
		t.exec.End()
		t.exec = nil
	}
}

func (t *reqTrace) startEncode() {
	if t != nil {
		t.enc = t.q.StartSpan(obs.PhaseEncode)
	}
}

func (t *reqTrace) endEncode() {
	if t != nil && t.enc != nil {
		t.enc.End()
		t.enc = nil
	}
}

// finish closes any phase span still open (shed and refused requests never
// reach later phases) and hands the tree to the flight recorder.
func (t *reqTrace) finish(code string) {
	if t == nil {
		return
	}
	t.endAdmission()
	t.endForward()
	t.endQueue()
	t.endExec()
	t.endEncode()
	t.q.Finish(code)
}

// logConnOpen / logConnClose emit one structured line per connection
// event. The Enabled guard keeps the disabled path free of attr-slice
// allocations (a nil logger reports every level disabled).
func (s *Server) logConnOpen(remote string) {
	if s.cfg.Logger.Enabled(obs.LevelInfo) {
		s.cfg.Logger.Info("conn open", obs.String("remote", remote))
	}
}

func (s *Server) logConnClose(remote string) {
	if s.cfg.Logger.Enabled(obs.LevelInfo) {
		s.cfg.Logger.Info("conn close", obs.String("remote", remote))
	}
}

// logResponse emits one structured line per non-OK response.
func (s *Server) logResponse(remote, op, rid, code, msg string) {
	if !s.cfg.Logger.Enabled(obs.LevelWarn) {
		return
	}
	s.cfg.Logger.Warn("request failed",
		obs.String("remote", remote), obs.String("op", op),
		obs.String("rid", rid), obs.String("code", code),
		obs.String("err", msg))
}

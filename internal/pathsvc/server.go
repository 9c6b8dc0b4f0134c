package pathsvc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hhc"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Typed request-outcome errors. The server renders them into response
// codes; the client maps the codes back onto the same sentinels, so
// errors.Is works identically on both sides of the wire.
var (
	// ErrDeadlineExceeded reports that a request's deadline expired while
	// it waited in the queue or executed.
	ErrDeadlineExceeded = errors.New("pathsvc: request deadline exceeded")
	// ErrOverload reports an admission rejection: the work queue was full.
	ErrOverload = errors.New("pathsvc: server overloaded, queue full")
	// ErrShutdown reports that the server is draining and refused the request.
	ErrShutdown = errors.New("pathsvc: server shutting down")
)

// Admission selects what happens to a request that arrives while the work
// queue is full.
type Admission int

const (
	// AdmitReject answers CodeOverload immediately with a retry-after hint
	// (shed load early, keep latency bounded for admitted work).
	AdmitReject Admission = iota
	// AdmitBlock parks the connection's reader until queue space frees up
	// (per-connection backpressure instead of shedding).
	AdmitBlock
)

// String names the policy.
func (a Admission) String() string {
	switch a {
	case AdmitReject:
		return "reject"
	case AdmitBlock:
		return "block"
	default:
		return fmt.Sprintf("Admission(%d)", int(a))
	}
}

// ParseAdmission parses the CLI spelling of an admission policy.
func ParseAdmission(s string) (Admission, error) {
	switch s {
	case "reject", "":
		return AdmitReject, nil
	case "block":
		return AdmitBlock, nil
	default:
		return 0, fmt.Errorf("pathsvc: unknown admission policy %q (want reject|block)", s)
	}
}

// Forwarder hooks a cluster layer into the server. The server consults it
// once per path/route query: non-owned queries that have not been forwarded
// already (the wire's forwarded bit — the hop guard) are relayed to their
// owning peer instead of executing locally. implementations live above this
// package (internal/cluster); the server only needs ownership answers and
// a way to relay.
type Forwarder interface {
	// Owns reports whether this process owns the canonicalized (u, v) key.
	Owns(u, v hhc.Node) bool
	// Forward relays req to the owning peer and decodes its answer into
	// resp, returning the owner's address so the requester's trace can
	// attribute the hop. A non-nil error is either transport-level (the
	// peer is unreachable or the stream broke — the server falls back to a
	// local, correctness-preserving answer) or a *ServerError carrying the
	// owner's verdict; peer names the attempted owner in both cases when
	// known.
	Forward(req *RequestV2, resp *ResponseV2) (peer string, err error)
}

// Config tunes a Server. The zero value of every field selects a sensible
// default; only M is required.
type Config struct {
	// M is the served topology's son-cube dimension.
	M int
	// Workers is the construction worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (0 = DefaultQueueDepth).
	QueueDepth int
	// Admission selects the full-queue behavior (default AdmitReject).
	Admission Admission
	// RetryAfter is the back-off hint sent with CodeOverload
	// (0 = DefaultRetryAfter).
	RetryAfter time.Duration
	// DefaultTimeout caps requests that carry no deadline of their own
	// (0 = DefaultRequestTimeout).
	DefaultTimeout time.Duration
	// MaxFrame bounds wire frames (0 = DefaultMaxFrame).
	MaxFrame int
	// ShedThreshold is the queue-fill fraction beyond which OpPaths
	// responses degrade to DegradeWidth paths (0 = DefaultShedThreshold;
	// must be in (0, 1]).
	ShedThreshold float64
	// DegradeWidth is the container width served while degraded
	// (0 = DefaultDegradeWidth).
	DegradeWidth int
	// MaxBatch bounds OpBatch pair counts (0 = DefaultMaxBatch).
	MaxBatch int
	// Cache tunes the memoizing container cache backing the service.
	Cache cache.Options
	// Reg, when non-nil, receives the pathsvc_* metric set (plus the
	// cache_* set of the backing cache).
	Reg *obs.Registry
	// Logger, when non-nil, receives one structured line per connection
	// event and per non-OK response. Nil disables logging at zero cost.
	Logger *obs.Logger
	// Requests, when non-nil, records a span tree per request (admission,
	// queue wait, execution, encode) into the tracer's flight recorder
	// behind /debug/requests, and onto its -trace stream when one is
	// attached. Nil disables request tracing at zero cost.
	Requests *obs.Tracer
	// Router, when non-nil, shards the query space across cluster peers:
	// path/route queries whose canonical key this process does not own are
	// relayed to the owner (at most once — see the wire's forwarded bit)
	// and answered locally only when the owner is unreachable.
	Router Forwarder
	// Peer names this process in the cluster (its own address). When set,
	// the core pathsvc_* counters are additionally exported with a
	// {peer="..."} label so multi-peer scrapes can tell instances apart.
	Peer string
	// ForwardConcurrency bounds in-flight peer forwards
	// (0 = DefaultForwardConcurrency). Beyond the bound the server answers
	// locally instead of queueing forwards.
	ForwardConcurrency int
}

// Defaults for Config zero values.
const (
	DefaultQueueDepth         = 256
	DefaultRetryAfter         = 50 * time.Millisecond
	DefaultRequestTimeout     = 2 * time.Second
	DefaultShedThreshold      = 0.75
	DefaultDegradeWidth       = 1
	DefaultMaxBatch           = 1024
	DefaultForwardConcurrency = 256
)

// Counters is the always-on (obs-independent) event ledger of a Server,
// updated atomically on the serving path and re-exported through obs
// callbacks when a registry is configured.
type Counters struct {
	Conns     stats.Counter // accepted connections
	Requests  stats.Counter // decoded requests of any op
	Admitted  stats.Counter // requests that entered the work queue
	Shed      stats.Counter // requests rejected at admission (queue full)
	Coalesced stats.Counter // requests piggybacked on an identical in-flight query
	Degraded  stats.Counter // responses truncated below full width by queue pressure
	Deadline  stats.Counter // requests that missed their deadline
	Failed    stats.Counter // bad_request / unroutable / internal responses
	Completed stats.Counter // successful responses
	// Cluster-mode ledger (all zero without a Router).
	Forwarded     stats.Counter // non-owned queries answered through the owning peer
	ForwardErrors stats.Counter // forwards that failed (peer down, overload, stream broken)
	ForwardedIn   stats.Counter // queries that arrived already forwarded by a peer
	DegradedLocal stats.Counter // non-owned queries answered locally after a failed forward
	BatchLocal    stats.Counter // batches answered locally despite containing non-owned pairs
}

// Snapshot is a point-in-time reading of Counters.
type Snapshot struct {
	Conns, Requests, Admitted, Shed, Coalesced                     int64
	Degraded, Deadline, Failed, Completed                          int64
	Forwarded, ForwardErrors, ForwardedIn, DegradedLoc, BatchLocal int64
}

// String renders the snapshot on one line for CLI summaries.
func (s Snapshot) String() string {
	line := fmt.Sprintf("conns=%d requests=%d admitted=%d shed=%d coalesced=%d degraded=%d deadline=%d failed=%d completed=%d",
		s.Conns, s.Requests, s.Admitted, s.Shed, s.Coalesced, s.Degraded, s.Deadline, s.Failed, s.Completed)
	if s.Forwarded > 0 || s.ForwardErrors > 0 || s.ForwardedIn > 0 || s.DegradedLoc > 0 || s.BatchLocal > 0 {
		line += fmt.Sprintf(" forwarded=%d fwd_errors=%d fwd_in=%d degraded_local=%d batch_local=%d",
			s.Forwarded, s.ForwardErrors, s.ForwardedIn, s.DegradedLoc, s.BatchLocal)
	}
	return line
}

// coalesceKey identifies queries that may share one construction: same
// endpoints on the server's one topology. Width preferences (MaxPaths,
// shedding) stay per-requester — the leader computes the full container and
// every recipient truncates its own copy.
type coalesceKey struct {
	u, v hhc.Node
}

// request is one decoded frame in node-native form, whichever encoding it
// arrived in: the edge decoders (decodeV1, decodeV2) fill it and serve runs
// the one protocol-independent pipeline on it. Each connection reuses one
// instance as its decode scratch.
type request struct {
	RequestV2
	proto uint8  // ProtocolVersion or ProtocolV2: which encoder answers
	op    string // op name (v1 echoes the client's spelling, even for an unknown op)
	// err is the first endpoint or fault address that failed to decode (a
	// paths/route query answered bad_request before admission).
	err string
	// pairErrs holds the per-pair address errors of a batch, aligned with
	// Pairs; empty when every pair decoded.
	pairErrs []string
	// echo is the client's own batch pair text (v1), echoed verbatim per item.
	echo [][2]string
}

// pairErr records the address error of pair i of an n-pair batch.
func (r *request) pairErr(i, n int, msg string) {
	if len(r.pairErrs) == 0 {
		r.pairErrs = make([]string, n)
	}
	r.pairErrs[i] = msg
}

// pendingReq is everything needed to answer one requester: leader and
// coalesced waiters carry the same shape. proto records which wire version
// the request arrived in, so coalesced v1 and v2 requesters of the same
// construction each get an answer in their own encoding.
type pendingReq struct {
	pc       *serverConn
	proto    uint8 // ProtocolVersion or ProtocolV2
	id       uint64
	rid      string // request id echoed in the response ("" = untraced, none supplied)
	op       string
	echo     [][2]string // v1 batch pair text (see request.echo)
	maxPaths int
	degraded bool
	// coalesced marks a waiter answered by piggybacking on the leader's
	// construction; its queueNS stays 0 (it never entered the queue).
	coalesced bool
	queueNS   int64 // time spent waiting for a worker, set at pickup
	tr        *reqTrace
	// deadline is the absolute per-request deadline (arrival + the request
	// or default timeout). A plain time.Time instead of a context: the serve
	// path only ever polls expiry, and skipping context.WithTimeout saves a
	// context, a timer, and a cancel func per request on both protocols.
	deadline time.Time
	start    time.Time
}

// task is one unit of queued work.
type task struct {
	pendingReq
	u, v hhc.Node
	// batch holds one answer slot per batch pair: endpoints in, paths or
	// error out (pairs the edge could not decode arrive already failed).
	batch    []BatchItemV2
	faults   map[hhc.Node]bool
	enqueued time.Time
	lead     bool // owns an entry in Server.inflight
	// forwarded mirrors the wire's hop-guard bit: the query already crossed
	// a peer hop, so this server must answer it locally whatever the ring says.
	forwarded bool
	key       coalesceKey
	// admitted is claimed by whichever side first sees the task in the
	// queue, so Admitted counts it exactly once (see countAdmitted).
	admitted atomic.Bool
}

// countAdmitted counts t into Admitted exactly once. The reader claims it
// after its send succeeds and the worker claims it on dequeue, before it
// completes the task, so no task is answered before it is counted and
// Admitted >= Completed holds at every scrape. A shed task was never sent
// and is never counted, so the counter never goes backwards.
func (s *Server) countAdmitted(t *task) {
	if t.admitted.CompareAndSwap(false, true) {
		s.counters.Admitted.Inc()
	}
}

// flight collects the waiters coalesced onto one in-flight query.
type flight struct {
	waiters []pendingReq
}

// outcome is a worker's answer, shared by the leader and all waiters.
type outcome struct {
	code       string
	errMsg     string
	paths      [][]hhc.Node
	results    []BatchItemV2
	retryAfter time.Duration
	execNS     int64 // construction time, shared by every coalesced recipient
	// width, full, and degraded describe one recipient's container, set by
	// respond on its own copy.
	width, full int
	degraded    bool
}

// serverConn serializes concurrent response writes onto one connection.
type serverConn struct {
	c       net.Conn
	remote  string
	maxSend int
	wmu     sync.Mutex
	// pending counts responses owed by the worker pool; the reader waits
	// for it before closing the connection, so graceful shutdown never
	// drops an admitted request's answer.
	pending sync.WaitGroup
}

// write sends one encoded frame with a single conn.Write. A frame over the
// limit here is an encoder's frame-limit substitute that still did not
// fit: the connection is closed so the client at least sees EOF rather
// than waiting on silence.
//
//hhc:hotpath
func (pc *serverConn) write(buf []byte) {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	if patchFramePrefix(buf) > pc.maxSend {
		_ = pc.c.Close()
		return
	}
	// An I/O error means the peer vanished; the reader will observe the
	// broken connection and clean up, so there is nobody left to notify.
	_, _ = pc.c.Write(buf)
}

// Server serves disjoint-path queries over length-prefixed JSON frames.
// Create with New, run with Serve, stop with Shutdown.
type Server struct {
	cfg      Config
	g        *hhc.Graph
	cache    *cache.Cache
	counters Counters

	queue    chan *task
	shedHigh int

	quit      chan struct{} // closed by Shutdown: stop admitting work
	done      chan struct{} // closed by Serve once fully drained
	closeOnce sync.Once
	started   atomic.Bool

	connMu sync.Mutex
	ln     net.Listener          // guarded by connMu (Serve publishes, beginClose closes)
	conns  map[net.Conn]struct{} // guarded by connMu
	connWG sync.WaitGroup

	workerWG      sync.WaitGroup
	activeWorkers atomic.Int64

	inflightMu sync.Mutex
	inflight   map[coalesceKey]*flight // guarded by inflightMu

	// fwdSem bounds in-flight peer forwards (nil without a Router); a full
	// semaphore downgrades to an immediate local answer, so forwards can
	// never starve the connection readers or the worker pool.
	fwdSem    chan struct{}
	forwardWG sync.WaitGroup

	met *svcMetrics

	// stallForTest, when non-nil, runs at the top of every worker
	// execution; lifecycle tests use it to hold workers mid-request.
	stallForTest func()
}

// New validates cfg, builds the topology and its container cache, and
// registers the metric set when cfg.Reg is non-nil.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = DefaultRequestTimeout
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.ShedThreshold == 0 {
		cfg.ShedThreshold = DefaultShedThreshold
	}
	if cfg.ShedThreshold < 0 || cfg.ShedThreshold > 1 {
		return nil, fmt.Errorf("pathsvc: shed threshold %g out of range (0, 1]", cfg.ShedThreshold)
	}
	if cfg.DegradeWidth <= 0 {
		cfg.DegradeWidth = DefaultDegradeWidth
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	// Even an all-error batch reply spends ~minBatchItemBytes per item, so a
	// batch larger than this floor could never answer within one frame;
	// capping MaxBatch lets admission refuse it up front.
	if floor := (cfg.MaxFrame - batchEnvelopeBytes) / minBatchItemBytes; cfg.MaxBatch > floor {
		cfg.MaxBatch = floor
		if cfg.MaxBatch < 1 {
			cfg.MaxBatch = 1
		}
	}
	switch cfg.Admission {
	case AdmitReject, AdmitBlock:
	default:
		return nil, fmt.Errorf("pathsvc: unknown admission policy %d", int(cfg.Admission))
	}
	g, err := hhc.New(cfg.M)
	if err != nil {
		return nil, err
	}
	c, err := cache.New(g, cfg.Cache)
	if err != nil {
		return nil, err
	}
	shedHigh := int(cfg.ShedThreshold * float64(cfg.QueueDepth))
	if shedHigh < 1 {
		shedHigh = 1
	}
	if cfg.ForwardConcurrency <= 0 {
		cfg.ForwardConcurrency = DefaultForwardConcurrency
	}
	s := &Server{
		cfg:      cfg,
		g:        g,
		cache:    c,
		queue:    make(chan *task, cfg.QueueDepth),
		shedHigh: shedHigh,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
		inflight: make(map[coalesceKey]*flight),
	}
	if cfg.Router != nil {
		s.fwdSem = make(chan struct{}, cfg.ForwardConcurrency)
	}
	if cfg.Reg != nil {
		s.met = newSvcMetrics(cfg.Reg, s)
		s.cache.Register(cfg.Reg)
	}
	return s, nil
}

// M returns the served son-cube dimension.
func (s *Server) M() int { return s.g.M() }

// Counters returns a point-in-time reading of the serving ledger.
func (s *Server) Counters() Snapshot {
	return Snapshot{
		Conns:         s.counters.Conns.Load(),
		Requests:      s.counters.Requests.Load(),
		Admitted:      s.counters.Admitted.Load(),
		Shed:          s.counters.Shed.Load(),
		Coalesced:     s.counters.Coalesced.Load(),
		Degraded:      s.counters.Degraded.Load(),
		Deadline:      s.counters.Deadline.Load(),
		Failed:        s.counters.Failed.Load(),
		Completed:     s.counters.Completed.Load(),
		Forwarded:     s.counters.Forwarded.Load(),
		ForwardErrors: s.counters.ForwardErrors.Load(),
		ForwardedIn:   s.counters.ForwardedIn.Load(),
		DegradedLoc:   s.counters.DegradedLocal.Load(),
		BatchLocal:    s.counters.BatchLocal.Load(),
	}
}

// CacheSnapshot reads the backing container cache's counters.
func (s *Server) CacheSnapshot() stats.CacheSnapshot { return s.cache.Snapshot() }

// Serve accepts connections on ln and blocks until Shutdown (returning
// nil) or an accept error. It owns the drain: by the time Serve returns,
// every admitted request has been answered and every worker has exited.
func (s *Server) Serve(ln net.Listener) error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("pathsvc: Serve called twice")
	}
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	// A Shutdown that raced Serve's startup saw s.ln nil and could not close
	// it; re-checking after publication guarantees one of the two sides does.
	if s.closing() {
		_ = ln.Close()
	}
	s.workerWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	var err error
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			if !s.closing() {
				err = fmt.Errorf("pathsvc: accept: %w", aerr)
				s.beginClose()
			}
			break
		}
		s.counters.Conns.Inc()
		s.track(conn)
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
	// Drain: readers first (they stop enqueuing and wait out their pending
	// responses), then in-flight peer forwards (their fallbacks re-enter the
	// queue, so the queue cannot close under them), then the queue, then the
	// workers.
	s.connWG.Wait()
	s.forwardWG.Wait()
	close(s.queue)
	s.workerWG.Wait()
	close(s.done)
	return err
}

// Shutdown gracefully stops the server: no new connections or requests are
// accepted, every in-flight and queued request is answered, and the worker
// pool exits. It returns nil once fully drained, or ctx.Err() if ctx
// expires first (the drain keeps going in the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginClose()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// beginClose makes the shutdown decision once: refuse new work and poke
// every blocked connection reader awake.
func (s *Server) beginClose() {
	s.closeOnce.Do(func() {
		close(s.quit)
		s.connMu.Lock()
		if s.ln != nil {
			_ = s.ln.Close()
		}
		for c := range s.conns {
			// Unblock pending reads; the reader sees quit closed and exits
			// after its owed responses are written.
			_ = c.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()
	})
}

func (s *Server) closing() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

func (s *Server) track(c net.Conn) {
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
	// A connection accepted just before beginClose but tracked just after it
	// missed the poke loop; re-checking here closes that window, so an idle
	// reader cannot block the drain forever.
	if s.closing() {
		_ = c.SetReadDeadline(time.Now())
	}
}

func (s *Server) untrack(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// openConns reports the live connection count (metrics callback).
func (s *Server) openConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// handleConn reads frames off one connection, decodes each at the edge,
// and serves it. It never closes the connection while worker responses
// are owed.
func (s *Server) handleConn(conn net.Conn) {
	pc := &serverConn{c: conn, remote: conn.RemoteAddr().String(), maxSend: s.cfg.MaxFrame}
	s.logConnOpen(pc.remote)
	defer func() {
		pc.pending.Wait()
		_ = conn.Close()
		s.untrack(conn)
		s.logConnClose(pc.remote)
		s.connWG.Done()
	}()
	br := bufio.NewReader(conn)
	// One read buffer and one decode scratch per connection: every frame
	// lands in rbuf (grown once, then reused) and decodes into req, whose
	// slices serve copies out of before returning.
	var rbuf []byte
	var req request
	for {
		payload, err := ReadFrameInto(br, rbuf, s.cfg.MaxFrame)
		if err != nil {
			// EOF, a peer reset, a framing violation, or the shutdown read
			// deadline: all end the connection.
			return
		}
		rbuf = payload
		if payload[0] == frameMagicV2 {
			err = s.decodeV2(payload, &req)
		} else {
			err = s.decodeV1(payload, &req)
		}
		if s.closing() {
			// The frame raced the drain decision; refuse it explicitly, in
			// the encoding it arrived in (best effort — only a decodable
			// frame can be addressed).
			if err == nil {
				s.refuse(pc, &req, CodeShutdown, ErrShutdown.Error())
			}
			return
		}
		if err != nil {
			// A structurally broken frame is still answerable — the outer
			// framing holds, and whatever decoded (the id, when at least the
			// header arrived) addresses the refusal.
			s.refuse(pc, &req, CodeBadRequest, err.Error())
			continue
		}
		s.serve(pc, &req)
	}
}

// decodeV1 is the JSON edge and the only server code that parses text:
// node addresses (a failure keeps ParseNode's message), the millisecond
// timeout, and the client's batch pair text, kept for the v1 encoder to
// echo verbatim.
func (s *Server) decodeV1(payload []byte, req *request) error {
	raw, err := DecodeRequest(payload)
	req.proto, req.op, req.err, req.echo = ProtocolVersion, raw.Op, "", raw.Pairs
	req.Op, _ = opCodeOf(raw.Op)
	req.ID, req.RID, req.Origin, req.Forwarded = raw.ID, raw.RID, raw.Origin, raw.Fwd
	req.MaxPaths, req.TimeoutNS = raw.MaxPaths, int64(time.Duration(raw.TimeoutMS)*time.Millisecond)
	req.Faults, req.Pairs, req.pairErrs = req.Faults[:0], req.Pairs[:0], req.pairErrs[:0]
	if err != nil {
		return err
	}
	switch raw.Op {
	case OpPaths, OpRoute:
		if req.U, err = s.g.ParseNode(raw.U); err == nil {
			req.V, err = s.g.ParseNode(raw.V)
		}
		for i := 0; err == nil && raw.Op == OpRoute && i < len(raw.Faults); i++ {
			var f hhc.Node
			if f, err = s.g.ParseNode(raw.Faults[i]); err == nil {
				req.Faults = append(req.Faults, f)
			}
		}
		if err != nil {
			req.err = err.Error()
		}
	case OpBatch:
		for i, pair := range raw.Pairs {
			var p NodePair
			p.U, err = s.g.ParseNode(pair[0])
			if err == nil {
				p.V, err = s.g.ParseNode(pair[1])
			}
			req.Pairs = append(req.Pairs, p)
			if err != nil {
				req.pairErr(i, len(raw.Pairs), err.Error())
			}
		}
	}
	return nil
}

// decodeV2 is the binary edge: addresses arrive node-native and skip
// ParseNode, so the topology bound is checked here instead.
//
//hhc:hotpath
func (s *Server) decodeV2(payload []byte, req *request) error {
	err := DecodeRequestV2(payload, &req.RequestV2)
	req.proto, req.err, req.echo = ProtocolV2, "", nil
	req.op, _ = opNameOf(req.Op)
	req.pairErrs = req.pairErrs[:0]
	if err != nil {
		// A frame that failed to decode echoes no rid: its tail is untrusted.
		req.RID = ""
		return err
	}
	if req.Op == OpCodePaths || req.Op == OpCodeRoute {
		if !s.g.Contains(req.U) {
			req.err = s.nodeRangeErr(req.U)
		} else if !s.g.Contains(req.V) {
			req.err = s.nodeRangeErr(req.V)
		}
	}
	for _, f := range req.Faults {
		if req.err == "" && !s.g.Contains(f) {
			req.err = s.nodeRangeErr(f)
		}
	}
	for i, p := range req.Pairs {
		if !s.g.Contains(p.U) {
			req.pairErr(i, len(req.Pairs), s.nodeRangeErr(p.U))
		} else if !s.g.Contains(p.V) {
			req.pairErr(i, len(req.Pairs), s.nodeRangeErr(p.V))
		}
	}
	return nil
}

// nodeRangeErr renders the v2 analogue of hhc's out-of-range parse error
// for addresses that arrived in binary form.
func (s *Server) nodeRangeErr(u hhc.Node) string {
	return fmt.Sprintf("pathsvc: node %s out of range for m=%d", s.g.FormatNode(u), s.g.M())
}

// refuse answers a frame that never reaches the pipeline (undecodable, or
// racing the drain) with a typed error in its own encoding.
func (s *Server) refuse(pc *serverConn, req *request, code, msg string) {
	s.counters.Requests.Inc()
	s.answer(pendingReq{pc: pc, proto: req.proto, id: req.ID, rid: req.RID, op: req.op,
		start: time.Now()}, outcome{code: code, errMsg: msg})
}

// answer responds on the reader goroutine, bypassing the queue.
func (s *Server) answer(p pendingReq, out outcome) {
	p.tr.endAdmission()
	p.pc.pending.Add(1)
	s.respond(p, out)
}

// serve is the protocol-independent pipeline: it validates a decoded
// request, answers trivial ops inline, and hands the rest to admission.
// It runs on the connection's reader goroutine, so AdmitBlock
// backpressure parks exactly the connection that is overloading the
// queue. req is the connection's decode scratch, so everything the task
// retains past return (faults, batch pairs) is copied out here.
func (s *Server) serve(pc *serverConn, req *request) {
	s.counters.Requests.Inc()
	start := time.Now()
	tr := s.beginTrace(req.op, req.RID, pc.remote, req.Origin)
	// The echoed request id: the trace id when tracing is on (it adopts a
	// client-supplied RID), else a pass-through of whatever the client sent.
	rid := req.RID
	if id := tr.id(); id != "" {
		rid = id
	}
	p := pendingReq{pc: pc, proto: req.proto, id: req.ID, rid: rid, op: req.op,
		echo: req.echo, maxPaths: req.MaxPaths, tr: tr, start: start}

	var msg string
	switch req.op {
	case OpPing, OpInfo:
		s.answer(p, outcome{})
		return
	case OpPaths, OpRoute:
		msg = req.err
	case OpBatch:
		if len(req.Pairs) == 0 {
			msg = "pathsvc: batch with no pairs"
		} else if len(req.Pairs) > s.cfg.MaxBatch {
			msg = fmt.Sprintf("pathsvc: batch of %d pairs exceeds the %d-pair limit", len(req.Pairs), s.cfg.MaxBatch)
		}
	default:
		msg = fmt.Sprintf("unknown op %q", req.op)
	}
	if msg != "" {
		s.answer(p, outcome{code: CodeBadRequest, errMsg: msg})
		return
	}

	t := &task{pendingReq: p, u: req.U, v: req.V, forwarded: req.Forwarded}
	switch req.op {
	case OpRoute:
		t.faults = make(map[hhc.Node]bool, len(req.Faults))
		for _, f := range req.Faults {
			t.faults[f] = true
		}
	case OpBatch:
		t.batch = make([]BatchItemV2, len(req.Pairs))
		for i, pair := range req.Pairs {
			t.batch[i].U, t.batch[i].V = pair.U, pair.V
			if len(req.pairErrs) > 0 {
				t.batch[i].Err = req.pairErrs[i]
			}
		}
	}
	tr.setQuery(req.op, t.u, t.v, len(t.batch))

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutNS > 0 {
		timeout = time.Duration(req.TimeoutNS)
	}
	t.deadline = start.Add(timeout)
	s.admit(t)
}

// admit routes one validated request: in cluster mode, path/route queries
// whose canonical key another peer owns are relayed there (unless the
// hop-guard bit says the query already crossed a hop — then this server
// answers locally no matter what its ring says, so disagreeing membership
// views can never bounce a query forever); everything else runs the local
// admission path.
func (s *Server) admit(t *task) {
	if s.cfg.Router != nil && (t.op == OpPaths || t.op == OpRoute) {
		if t.forwarded {
			s.counters.ForwardedIn.Inc()
		} else if !s.cfg.Router.Owns(t.u, t.v) {
			s.forward(t)
			return
		}
	}
	s.admitLocal(t)
}

// admitLocal runs the local tail of the pipeline: the degrade
// decision, in-flight coalescing of identical path queries, and admission
// control. It runs on the connection's reader goroutine (or a forward
// goroutine falling back after a peer failure), so AdmitBlock backpressure
// parks exactly the connection that is overloading the queue.
func (s *Server) admitLocal(t *task) {
	// The degrade decision is taken at admission time: a queue filling past
	// the shed threshold marks new path queries for width truncation.
	t.degraded = len(s.queue) >= s.shedHigh

	if t.op == OpPaths {
		key := coalesceKey{u: t.u, v: t.v}
		s.inflightMu.Lock()
		if fl, ok := s.inflight[key]; ok {
			t.coalesced = true
			t.tr.setAttr("coalesced", "true")
			t.tr.endAdmission()
			t.pc.pending.Add(1)
			fl.waiters = append(fl.waiters, t.pendingReq)
			s.inflightMu.Unlock()
			s.counters.Coalesced.Inc()
			return
		}
		s.inflight[key] = &flight{}
		s.inflightMu.Unlock()
		t.lead, t.key = true, key
	}

	t.enqueued = time.Now()
	t.tr.endAdmission()
	t.tr.startQueue()
	t.pc.pending.Add(1)
	select {
	case s.queue <- t:
		s.countAdmitted(t)
		return
	default:
	}
	if s.cfg.Admission == AdmitBlock {
		select {
		case s.queue <- t:
			s.countAdmitted(t)
			return
		case <-s.quit:
			s.deliverAll(t, outcome{code: CodeShutdown, errMsg: ErrShutdown.Error()})
			return
		}
	}
	// AdmitReject: shed now, with a back-off hint.
	s.counters.Shed.Inc()
	s.deliverAll(t, outcome{
		code:       CodeOverload,
		errMsg:     ErrOverload.Error(),
		retryAfter: s.cfg.RetryAfter,
	})
}

// forward relays a non-owned query to its owning peer on a dedicated
// bounded goroutine: forwards must never occupy a construction worker, or
// two peers forwarding to each other could deadlock both pools. The owed
// response is reserved (pc.pending) before the reader goroutine moves on,
// so connection close and graceful drain both account for the in-flight
// hop.
func (s *Server) forward(t *task) {
	t.tr.endAdmission()
	t.pc.pending.Add(1)
	select {
	case s.fwdSem <- struct{}{}:
	default:
		// The forward pool is saturated. Answering locally is always
		// correct — just a construction the owner's cache would have
		// absorbed — so shed the hop, not the request.
		s.counters.DegradedLocal.Inc()
		s.fallbackLocal(t)
		return
	}
	t.tr.startForward()
	s.forwardWG.Add(1)
	go func() {
		defer s.forwardWG.Done()
		defer func() { <-s.fwdSem }()
		s.runForward(t)
	}()
}

// runForward executes one peer hop: the query goes out as a v2 frame with
// the hop-guard bit set and MaxPaths 0 (the full container comes back, and
// respond applies this requester's own width, degrade, and deadline policy
// locally). Transport failures and an overloaded or draining owner
// downgrade to a local answer; any other owner verdict is this query's
// answer and is relayed as-is.
func (s *Server) runForward(t *task) {
	opc, _ := opCodeOf(t.op)
	// The rid and this peer's own address travel with the hop, so the owner
	// records the forwarded tree under the same rid, tagged with its origin
	// — the two halves of the cross-peer trace stitch back together by rid.
	// A client that supplied no rid still gets a joinable trace: the hop
	// carries the id the flight recorder minted for this request.
	rid := t.rid
	if rid == "" {
		rid = t.tr.id()
	}
	req := RequestV2{Op: opc, RID: rid, U: t.u, V: t.v,
		Forwarded: true, Origin: s.cfg.Peer}
	if len(t.faults) > 0 {
		req.Faults = make([]hhc.Node, 0, len(t.faults))
		for f := range t.faults {
			req.Faults = append(req.Faults, f)
		}
	}
	remaining := time.Until(t.deadline)
	if remaining <= 0 {
		t.tr.endForward()
		s.deliverAll(t, outcome{code: CodeDeadline, errMsg: ErrDeadlineExceeded.Error()})
		return
	}
	req.TimeoutNS = int64(remaining)
	var resp ResponseV2
	peer, err := s.cfg.Router.Forward(&req, &resp)
	if err == nil {
		// Relay the owner's timing into this requester's view: the forward
		// span decomposes into remote queue/exec/wire children, and the
		// response's queue_ns reports the remote queue wait (this side never
		// queued, so the field would otherwise read 0 and hide the stall).
		t.tr.endForwardWith(peer, resp.QueueNS, resp.ExecNS)
		t.queueNS = resp.QueueNS
		s.counters.Forwarded.Inc()
		s.deliverAll(t, outcome{paths: resp.Paths, execNS: resp.ExecNS})
		return
	}
	var se *ServerError
	if errors.As(err, &se) && !errors.Is(se, ErrOverload) && !errors.Is(se, ErrShutdown) {
		// The owner reached a verdict (bad_request, unroutable, deadline,
		// internal): that verdict is the answer — the hop itself worked.
		t.tr.endForwardWith(peer, resp.QueueNS, resp.ExecNS)
		s.counters.Forwarded.Inc()
		s.deliverAll(t, outcome{code: se.Code, errMsg: se.Msg})
		return
	}
	// The peer is unreachable, the stream broke, or the owner is too loaded
	// to help: degrade to a correctness-preserving local answer.
	s.counters.ForwardErrors.Inc()
	s.counters.DegradedLocal.Inc()
	s.fallbackLocal(t)
}

// fallbackLocal re-enters the local admission path for a query whose
// forward could not run. The pending reservation taken by forward is
// released only after admitLocal takes its own, so the connection's
// owed-response count never touches zero with the answer still unsent.
func (s *Server) fallbackLocal(t *task) {
	t.tr.endForward()
	s.admitLocal(t)
	t.pc.pending.Done()
}

// worker executes queued tasks until the queue closes.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.queue {
		s.countAdmitted(t)
		wait := time.Since(t.enqueued)
		s.met.observeQueueWait(wait)
		t.queueNS = int64(wait)
		t.tr.endQueue()
		s.activeWorkers.Add(1)
		s.process(t)
		s.activeWorkers.Add(-1)
	}
}

func (s *Server) process(t *task) {
	if s.stallForTest != nil {
		s.stallForTest()
	}
	var out outcome
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		out = outcome{code: CodeDeadline, errMsg: ErrDeadlineExceeded.Error()}
	} else {
		t.tr.startExec()
		execStart := time.Now()
		switch t.op {
		case OpPaths:
			out = s.doPaths(t)
		case OpRoute:
			out = s.doRoute(t)
		case OpBatch:
			out = s.doBatch(t)
		}
		out.execNS = int64(time.Since(execStart))
		s.met.observeExec(time.Duration(out.execNS), t.rid)
		t.tr.endExec()
	}
	s.deliverAll(t, out)
}

// doPaths constructs (or fetches) the full-width container; truncation is
// applied per recipient in respond.
func (s *Server) doPaths(t *task) outcome {
	paths, err := s.cache.Paths(t.u, t.v, core.Options{})
	if err != nil {
		return outcome{code: CodeBadRequest, errMsg: err.Error()}
	}
	return outcome{paths: paths}
}

// doRoute picks the shortest container path avoiding the declared faults.
func (s *Server) doRoute(t *task) outcome {
	if t.faults[t.u] {
		return outcome{code: CodeBadRequest,
			errMsg: fmt.Sprintf("pathsvc: source %s is faulty", s.g.FormatNode(t.u))}
	}
	if t.faults[t.v] {
		return outcome{code: CodeBadRequest,
			errMsg: fmt.Sprintf("pathsvc: destination %s is faulty", s.g.FormatNode(t.v))}
	}
	paths, err := s.cache.Paths(t.u, t.v, core.Options{})
	if err != nil {
		return outcome{code: CodeBadRequest, errMsg: err.Error()}
	}
	surviving := core.SurvivingPaths(paths, t.faults)
	if len(surviving) == 0 {
		return outcome{code: CodeUnroutable, errMsg: core.ErrAllPathsFaulty.Error()}
	}
	sort.Slice(surviving, func(i, j int) bool { return len(surviving[i]) < len(surviving[j]) })
	return outcome{paths: surviving[:1]}
}

const (
	// batchEnvelopeBytes is the frame budget reserved for the non-Results
	// fields of a batch Response (ver, id, op, and JSON punctuation).
	batchEnvelopeBytes = 256
	// minBatchItemBytes is the smallest footprint one BatchItem can encode
	// to (an error item with minimal addresses).
	minBatchItemBytes = 32
)

// doBatch serves every pair through the cache, checking the deadline
// between items so a huge batch cannot outlive its budget, and the encoded
// size so the response is refused with a typed error — rather than
// silently undeliverable — when it cannot fit one reply frame. Answers
// stay node-native (the encoder renders them); pairs the edge could not
// decode keep their error.
func (s *Server) doBatch(t *task) outcome {
	sizeBudget := s.cfg.MaxFrame - batchEnvelopeBytes
	size := 0
	nonOwned := false
	for i := range t.batch {
		if time.Now().After(t.deadline) {
			return outcome{code: CodeDeadline, errMsg: ErrDeadlineExceeded.Error()}
		}
		item := &t.batch[i]
		if item.Err == "" {
			if s.cfg.Router != nil && !s.cfg.Router.Owns(item.U, item.V) {
				nonOwned = true
			}
			paths, err := s.cache.Paths(item.U, item.V, core.Options{})
			if err != nil {
				item.Err = err.Error()
			} else {
				item.Paths = paths
			}
		}
		size += s.batchItemSize(&t.pendingReq, i, item)
		if size > sizeBudget {
			return outcome{code: CodeBadRequest, errMsg: fmt.Sprintf(
				"pathsvc: batch response exceeds the %d-byte frame limit at pair %d of %d; split the batch",
				s.cfg.MaxFrame, i+1, len(t.batch))}
		}
	}
	s.noteBatchLocal(t, nonOwned)
	return outcome{results: t.batch}
}

// noteBatchLocal counts a batch that was answered locally even though it
// contained pairs another peer owns — batch forwarding is a known gap
// (see ROADMAP), and this counter makes its cost visible in telemetry
// instead of silently folding into local work. Hop-guarded batches are
// excluded: a forwarded batch is supposed to be answered locally.
func (s *Server) noteBatchLocal(t *task, nonOwned bool) {
	if nonOwned && s.cfg.Router != nil && !t.forwarded {
		s.counters.BatchLocal.Inc()
	}
}

// deliverAll answers the leader and, for coalesced queries, every waiter
// that piggybacked on it. The in-flight entry is removed first so late
// duplicates start a fresh construction instead of attaching to a
// completed one.
func (s *Server) deliverAll(t *task, out outcome) {
	if t.lead {
		s.inflightMu.Lock()
		fl := s.inflight[t.key]
		delete(s.inflight, t.key)
		s.inflightMu.Unlock()
		s.respond(t.pendingReq, out)
		for _, w := range fl.waiters {
			s.respond(w, out)
		}
		return
	}
	s.respond(t.pendingReq, out)
}

// respond answers one recipient: its own deadline check, its own width
// truncation, its own counters and latency sample, then the encoder of
// the wire version the request arrived in. out is the recipient's own
// copy; the paths it shares with other recipients are only ever re-sliced,
// never written.
//
//hhc:hotpath
func (s *Server) respond(p pendingReq, out outcome) {
	defer p.pc.pending.Done()
	if out.code == CodeOK && !p.deadline.IsZero() && time.Now().After(p.deadline) {
		// The shared construction finished, but after this requester's own
		// deadline: a stale answer is still a missed deadline.
		out = outcome{code: CodeDeadline, errMsg: ErrDeadlineExceeded.Error(), execNS: out.execNS}
	}
	switch out.code {
	case CodeOK:
		switch p.op {
		case OpPaths:
			out.full = len(out.paths)
			k := out.full
			if p.maxPaths > 0 && p.maxPaths < k {
				k = p.maxPaths
			}
			if p.degraded && s.cfg.DegradeWidth < k {
				k = s.cfg.DegradeWidth
				out.degraded = true
				s.counters.Degraded.Inc()
			}
			out.paths = out.paths[:k]
			out.width = k
			p.tr.setWidth(k)
		case OpRoute:
			out.width, out.full = len(out.paths), s.g.M()+1
		case OpInfo:
			out.width, out.full = s.g.M()+1, s.g.M()+1
		}
		s.counters.Completed.Inc()
	case CodeDeadline:
		s.counters.Deadline.Inc()
	case CodeOverload, CodeShutdown:
		// Shed/refused work is already counted at its decision site.
	default:
		s.counters.Failed.Inc()
	}
	if out.code != CodeOK {
		s.logResponse(p.pc.remote, p.op, p.rid, out.code, out.errMsg)
	}
	p.tr.startEncode()
	bufp := frameBufPool.Get().(*[]byte)
	buf := appendFramePrefix(*bufp)
	if p.proto == ProtocolV2 {
		buf = s.encodeV2(buf, &p, &out)
	} else {
		buf = s.encodeV1(buf, &p, &out)
	}
	p.pc.write(buf)
	*bufp = buf[:0]
	frameBufPool.Put(bufp)
	p.tr.endEncode()
	p.tr.finish(out.code)
	s.met.observeRequest(time.Since(p.start), p.rid)
}

// encodeV2 appends the binary frame payload answering p. The paths are
// shared read-only (out.paths aliases the cached container): the encoder
// walks them exactly once on this goroutine, with no defensive copy and
// no per-node formatting — the bulk of the v2 serve path's allocation win.
//
//hhc:hotpath
func (s *Server) encodeV2(buf []byte, p *pendingReq, out *outcome) []byte {
	op, _ := opCodeOf(p.op)
	resp := ResponseV2{ID: p.id, RID: p.rid, Op: op, Code: statusOf(out.code), Err: out.errMsg,
		QueueNS: p.queueNS, ExecNS: out.execNS, RetryAfterNS: int64(out.retryAfter),
		Coalesced: p.coalesced, Degraded: out.degraded, Width: out.width, Full: out.full,
		Paths: out.paths, Results: out.results}
	if p.op == OpInfo {
		resp.M = s.g.M()
	}
	start := len(buf)
	buf = AppendResponseV2(buf, &resp)
	if len(buf)-start > p.pc.maxSend {
		// The answer outgrew the frame limit. The peer is alive and blocked
		// on it, so silence would hang it forever: substitute a small typed
		// error (write closes the connection if even that cannot be framed).
		small := ResponseV2{ID: p.id, RID: p.rid, Op: op, Code: StatusInternal,
			Err: frameLimitErrV2(p.pc.maxSend)}
		buf = AppendResponseV2(buf[:start], &small)
	}
	return buf
}

func frameLimitErrV2(max int) string {
	return fmt.Sprintf("%s: response exceeds %d bytes", ErrFrameTooLarge.Error(), max)
}

// encodeV1 appends the JSON frame payload answering p: the only server
// code that renders nodes as text, and the only one that sees the
// client's batch pair text again (echoed verbatim per item).
func (s *Server) encodeV1(buf []byte, p *pendingReq, out *outcome) []byte {
	format := func(paths [][]hhc.Node) [][]string {
		if len(paths) == 0 {
			return nil
		}
		text := make([][]string, len(paths))
		for i, path := range paths {
			text[i] = make([]string, len(path))
			for j, n := range path {
				text[i][j] = s.g.FormatNode(n)
			}
		}
		return text
	}
	resp := &Response{Ver: ProtocolVersion, ID: p.id, RID: p.rid, Op: p.op,
		Code: out.code, Err: out.errMsg, RetryAfterMS: wireTimeoutMS(out.retryAfter),
		QueueNS: p.queueNS, ExecNS: out.execNS, Coalesced: p.coalesced,
		Degraded: out.degraded, Width: out.width, Full: out.full}
	resp.Paths = format(out.paths)
	if out.results != nil {
		resp.Results = make([]BatchItem, len(out.results))
		for i, item := range out.results {
			resp.Results[i] = BatchItem{U: p.echo[i][0], V: p.echo[i][1], Paths: format(item.Paths), Err: item.Err}
		}
	}
	if p.op == OpInfo {
		resp.M, resp.VerMax = s.g.M(), MaxProtocolVersion
	}
	payload, _ := json.Marshal(resp)
	if len(payload) > p.pc.maxSend {
		// See encodeV2: the outgrown answer is replaced by a small typed error.
		payload, _ = json.Marshal(&Response{Ver: ProtocolVersion, ID: p.id, Op: p.op, Code: CodeInternal,
			Err: fmt.Sprintf("%v: %d > %d bytes", ErrFrameTooLarge, len(payload), p.pc.maxSend)})
	}
	return append(buf, payload...)
}

// batchItemSize is the footprint batch item i adds to p's answer in p's
// own encoding, budgeted by doBatch against the frame limit. The v1 size
// is exact without rendering the paths twice: the echoed text and error
// go through the JSON encoder, and every formatted node is a quoted
// "0x…:…" string that never needs escaping.
func (s *Server) batchItemSize(p *pendingReq, i int, item *BatchItemV2) int {
	if p.proto == ProtocolV2 {
		return batchItemSizeV2(item)
	}
	enc, _ := json.Marshal(BatchItem{U: p.echo[i][0], V: p.echo[i][1], Err: item.Err})
	size := len(enc) + 1 // +1 for the separating comma
	if len(item.Paths) > 0 {
		size += len(`,"paths":[]`) + len(item.Paths) - 1
		for _, path := range item.Paths {
			size += 2 + len(path) - 1
			for _, n := range path {
				size += 2 + nodeTextLen(n)
			}
		}
	}
	return size
}

// nodeTextLen is len(hhc.FormatNodeWire(u)) without the formatting: "0x",
// the hex digits of X, ':', and the decimal digits of Y.
func nodeTextLen(u hhc.Node) int {
	n := len("0x:") + (bits.Len64(u.X|1)+3)/4 + 1
	if u.Y >= 10 {
		n++
	}
	if u.Y >= 100 {
		n++
	}
	return n
}

package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/hhc"
	"repro/internal/obs"
)

// Observer carries the construction pipeline's instrumentation: per-phase
// latency histograms and a span tracer. It is installed process-wide with
// SetObserver so DisjointPathsOpt keeps its signature. With no observer
// installed a construction pays one atomic load plus a nil check per
// phase, and allocates nothing extra. Measured at m=6 on uniform pairs
// (BenchmarkConstruct's workload; 16 alternating runs on a 2-vCPU shared
// host): median 81.5 µs/op with no observer and 82.2 µs/op with one and
// a tracer, inside the 7.8–8.7 µs spread between quartiles; 33 and 42
// allocs/op.
//
// Field histograms may be nil individually (obs metrics are nil-safe), so
// partial observers — tracer only, metrics only — work without branching.
type Observer struct {
	// Tracer receives one span per construction plus one per phase.
	Tracer *obs.Tracer
	// SameCube / CrossCube time whole constructions by topology case.
	SameCube  *obs.Histogram
	CrossCube *obs.Histogram
	// Derive, Select, Realize time the cross-cube phases: base-sequence
	// derivation (cyclic order + detour preference), super-path
	// selection, and lifting into concrete paths.
	Derive  *obs.Histogram
	Select  *obs.Histogram
	Realize *obs.Histogram
	// Verify times VerifyDisjoint runs (the optional checking phase).
	Verify *obs.Histogram
	// Errors counts failed constructions.
	Errors *obs.Counter

	// Batch metrics: items processed, queue wait from batch start to item
	// pickup, cumulative worker busy time, and live worker count.
	BatchItems     *obs.Counter
	BatchQueueWait *obs.Histogram
	BatchBusyNanos *obs.Counter
	BatchWorkers   *obs.Gauge
}

// NewObserver builds an Observer whose metrics live in reg under the
// core_* namespace. tr may be nil for metrics-only observation.
func NewObserver(reg *obs.Registry, tr *obs.Tracer) *Observer {
	construct := func(kind string) *obs.Histogram {
		return reg.Histogram(`core_construct_seconds{kind="`+kind+`"}`,
			"Wall time of one disjoint-path container construction.", obs.DefLatencyBuckets)
	}
	phase := func(name string) *obs.Histogram {
		return reg.Histogram(`core_construct_phase_seconds{phase="`+name+`"}`,
			"Wall time of one construction phase.", obs.DefLatencyBuckets)
	}
	return &Observer{
		Tracer:    tr,
		SameCube:  construct("same-cube"),
		CrossCube: construct("cross-cube"),
		Derive:    phase("derive"),
		Select:    phase("select"),
		Realize:   phase("realize"),
		Verify:    phase("verify"),
		Errors: reg.Counter("core_construct_errors_total",
			"Constructions that returned an error."),
		BatchItems: reg.Counter("core_batch_items_total",
			"Pairs processed by batch construction."),
		BatchQueueWait: reg.Histogram("core_batch_queue_wait_seconds",
			"Wait from batch start until a worker picked the pair up.", obs.DefLatencyBuckets),
		BatchBusyNanos: reg.Counter("core_batch_worker_busy_nanoseconds_total",
			"Cumulative time batch workers spent constructing (vs. idle)."),
		BatchWorkers: reg.Gauge("core_batch_workers_active",
			"Batch worker goroutines currently running."),
	}
}

// observer is the installed instrumentation; nil = disabled.
var observer atomic.Pointer[Observer]

// SetObserver installs o process-wide (nil disables instrumentation).
// Safe to call concurrently with constructions; in-flight calls finish
// against whichever observer they loaded.
func SetObserver(o *Observer) { observer.Store(o) }

// CurrentObserver returns the installed observer, or nil.
func CurrentObserver() *Observer { return observer.Load() }

// phase is one open instrumented phase: a tracer span and the start of
// its histogram's clock. The zero phase, which a nil Observer hands out,
// reads no clock and ends as a no-op, so instrumented code never branches
// on whether an observer is installed.
type phase struct {
	h  *obs.Histogram
	sp *obs.Span
	t0 time.Time
}

// startPhase opens the cross-cube or verify phase called name: derive,
// select, realize or verify. The name is also the span's and picks the
// histogram.
func (o *Observer) startPhase(name string) phase {
	if o == nil {
		return phase{}
	}
	var h *obs.Histogram
	switch name {
	case "derive":
		h = o.Derive
	case "select":
		h = o.Select
	case "realize":
		h = o.Realize
	case "verify":
		h = o.Verify
	}
	return phase{h: h, sp: o.Tracer.Start(name), t0: time.Now()}
}

func (p phase) end() {
	if p.t0.IsZero() {
		return
	}
	p.h.ObserveDuration(time.Since(p.t0))
	p.sp.End()
}

// construction is one open construct span, timed into its kind's
// histogram.
type construction struct {
	phase
	errors *obs.Counter
}

// startConstruct opens the construct span for the pair (u, v), of kind
// same-cube or cross-cube. The endpoints are rendered only for a tracer,
// the one consumer of the span's attributes.
func (o *Observer) startConstruct(g *hhc.Graph, u, v hhc.Node) construction {
	if o == nil {
		return construction{}
	}
	kind, h := "cross-cube", o.CrossCube
	if u.X == v.X {
		kind, h = "same-cube", o.SameCube
	}
	var sp *obs.Span
	if o.Tracer != nil {
		sp = o.Tracer.Start("construct", obs.String("kind", kind),
			obs.String("u", g.FormatNode(u)), obs.String("v", g.FormatNode(v)))
	}
	return construction{phase: phase{h: h, sp: sp, t0: time.Now()}, errors: o.Errors}
}

// end closes the construction, counting it as failed when err is set.
func (c construction) end(err error) {
	if err != nil {
		c.errors.Inc()
	}
	c.phase.end()
}

// batchSpan is the batch pipeline's handle on its instrumentation: the
// whole obs surface DisjointPathsBatchFunc needs, quarantined here so the
// batch code itself never calls into internal/obs (the obscost analyzer
// enforces that split). A nil *batchSpan is the disabled path and every
// method is nil-receiver safe.
type batchSpan struct {
	o     *Observer
	start time.Time
	sp    *obs.Span
}

// startBatch opens the batch trace span. Returns nil when instrumentation
// is off.
func (o *Observer) startBatch(pairs, workers int) *batchSpan {
	if o == nil {
		return nil
	}
	return &batchSpan{
		o:     o,
		start: time.Now(),
		sp: o.Tracer.Start("batch",
			obs.String("pairs", strconv.Itoa(pairs)),
			obs.String("workers", strconv.Itoa(workers))),
	}
}

func (b *batchSpan) end() {
	if b != nil {
		b.sp.End()
	}
}

// workerEnter / workerExit track the live worker gauge.
func (b *batchSpan) workerEnter() {
	if b != nil {
		b.o.BatchWorkers.Inc()
	}
}

func (b *batchSpan) workerExit() {
	if b != nil {
		b.o.BatchWorkers.Dec()
	}
}

// startItem stamps one pair's pickup by a worker; the zero time when
// instrumentation is off.
func (b *batchSpan) startItem() time.Time {
	if b == nil {
		return time.Time{}
	}
	return time.Now()
}

// endItem records one processed pair: queue wait is measured from batch
// start to pickup (it grows along the queue and exposes worker
// starvation), busy is the construction time itself.
func (b *batchSpan) endItem(pickup time.Time) {
	if b == nil {
		return
	}
	b.o.BatchQueueWait.ObserveDuration(pickup.Sub(b.start))
	b.o.BatchBusyNanos.Add(int64(time.Since(pickup)))
	b.o.BatchItems.Inc()
}

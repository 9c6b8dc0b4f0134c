package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Observer carries the construction pipeline's instrumentation: per-phase
// latency histograms and a span tracer. It is installed process-wide with
// SetObserver so DisjointPathsOpt keeps its signature; with no observer
// installed the hot path pays one atomic load and nothing else (measured
// < 2% on BenchmarkConstruct).
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
	// derivation (cyclic order + detour preference), super-path selection
	// under the confinement mask, and lifting into concrete paths.
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

// phaseDone is returned by startPhase; calling it closes the phase.
type phaseDone func()

// noopDone is shared so the disabled path never allocates.
var noopDone phaseDone = func() {}

// startPhase opens a tracer span and starts the clock for one histogram.
// Works on a nil Observer (returns a no-op).
func (o *Observer) startPhase(name string, h *obs.Histogram, attrs ...obs.Attr) phaseDone {
	if o == nil {
		return noopDone
	}
	sp := o.Tracer.Start(name, attrs...)
	t0 := time.Now()
	return func() {
		h.ObserveDuration(time.Since(t0))
		sp.End()
	}
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
// is off, so callers can keep a zero-cost fast path behind one nil check.
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

// item records one processed pair: queue wait is measured from batch start
// to pickup (it grows along the queue and exposes worker starvation), busy
// is the construction time itself.
func (b *batchSpan) item(pickup time.Time, busy time.Duration) {
	b.o.BatchQueueWait.ObserveDuration(pickup.Sub(b.start))
	b.o.BatchBusyNanos.Add(int64(busy))
	b.o.BatchItems.Inc()
}

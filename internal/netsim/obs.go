package netsim

import (
	"sort"

	"repro/internal/obs"
)

// runMetrics bundles the simulator's registry metrics. A nil *runMetrics
// (observability off) is safe: every obs metric is nil-receiver safe and
// the struct's methods check the receiver.
type runMetrics struct {
	generated    *obs.Counter
	delivered    *obs.Counter
	dropped      *obs.Counter
	faultBlocked *obs.Counter
	pathPrunes   *obs.Counter
	flows        *obs.Gauge
	latency      *obs.Histogram
	inflight     *obs.Histogram
	inflightPeak *obs.Gauge
	makespan     *obs.Gauge
	throughput   *obs.Gauge
}

// latencyBuckets spans 1..2^17 cycles in powers of two — wide enough for
// every workload the evaluation section runs (deep networks saturate in
// the tens of thousands of cycles).
var latencyBuckets = obs.ExponentialBuckets(1, 2, 18)

// newRunMetrics registers (or re-binds) the netsim metric set in reg.
// Registration is idempotent: repeated runs against one registry reuse the
// same series and keep accumulating, which is what a scraped long-running
// process wants.
func newRunMetrics(reg *obs.Registry) *runMetrics {
	if reg == nil {
		return nil
	}
	return &runMetrics{
		generated: reg.Counter("netsim_messages_generated_total",
			"Messages created by all flows."),
		delivered: reg.Counter("netsim_messages_delivered_total",
			"Messages fully received at their destination."),
		dropped: reg.Counter("netsim_messages_dropped_total",
			"Messages lost because every usable path was faulty."),
		faultBlocked: reg.Counter("netsim_flows_blocked_total",
			"Messages whose flow had no surviving path at all."),
		pathPrunes: reg.Counter("netsim_fault_reroutes_total",
			"Container paths pruned by node or link faults (traffic rerouted onto survivors)."),
		flows: reg.Gauge("netsim_flows",
			"Concurrent flows in the current run."),
		latency: reg.Histogram("netsim_flow_latency_cycles",
			"Measured end-to-end message latency in cycles.", latencyBuckets),
		inflight: reg.Histogram("netsim_inflight_messages",
			"In-flight messages sampled at every delivery event.", latencyBuckets),
		inflightPeak: reg.Gauge("netsim_inflight_messages_peak",
			"Peak simultaneous in-flight messages over the run."),
		makespan: reg.Gauge("netsim_makespan_cycles",
			"Cycle of the last delivery in the most recent run."),
		throughput: reg.Gauge("netsim_throughput_flits_per_cycle",
			"Delivered flits per cycle (goodput) of the most recent run."),
	}
}

// span is the simulator's handle on one tracer span, so Run itself never
// calls into internal/obs (the obscost analyzer keeps that split honest).
type span struct{ a *obs.Span }

func (s span) end() { s.a.End() }

// startSpan opens a named span with alternating key/value attribute pairs.
// Nil tracers are fine: obs spans are nil-receiver safe.
func (cfg Config) startSpan(name string, kv ...string) span {
	attrs := make([]obs.Attr, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		attrs = append(attrs, obs.String(kv[i], kv[i+1]))
	}
	return span{a: cfg.Tracer.Start(name, attrs...)}
}

// setFlows records the run's concurrent-flow count.
func (m *runMetrics) setFlows(n int) {
	if m != nil {
		m.flows.Set(float64(n))
	}
}

// observeLatency records one measured end-to-end latency.
func (m *runMetrics) observeLatency(lat int64) {
	if m != nil {
		m.latency.Observe(float64(lat))
	}
}

// record publishes the run's aggregate result plus the occupancy replay.
func (m *runMetrics) record(res Result, created, done []int64) {
	if m == nil {
		return
	}
	m.generated.Add(int64(res.Generated))
	m.delivered.Add(int64(res.Delivered))
	m.dropped.Add(int64(res.Dropped))
	m.faultBlocked.Add(int64(res.FaultBlocked))
	m.makespan.Set(float64(res.Makespan))
	m.throughput.Set(res.Throughput)
	m.occupancy(created, done)
}

// addPrunes counts fault-pruned paths when metrics are on.
func (m *runMetrics) addPrunes(n int64) {
	if m != nil {
		m.pathPrunes.Add(n)
	}
}

// occupancy replays the message creation/completion events in time order,
// recording the in-flight count at every completion and the overall peak —
// the simulator is event-driven, so this post-pass is the per-tick
// occupancy signal without instrumenting the inner event loop.
func (m *runMetrics) occupancy(created, done []int64) {
	if m == nil || len(created) == 0 {
		return
	}
	type event struct {
		at    int64
		delta int
	}
	events := make([]event, 0, 2*len(created))
	for i := range created {
		events = append(events, event{created[i], +1}, event{done[i], -1})
	}
	// Sort by time; completions before creations at equal timestamps so the
	// count never double-peaks on a same-cycle handoff.
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].delta < events[j].delta
	})
	cur, peak := 0, 0
	for _, e := range events {
		cur += e.delta
		if e.delta < 0 {
			m.inflight.Observe(float64(cur + 1)) // occupancy just before this delivery
		}
		if cur > peak {
			peak = cur
		}
	}
	m.inflightPeak.Set(float64(peak))
}

package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// setupRounds is how many times set-up runs per benchmark run; setup_s
// is their median and the last fleet is the one measured.
const setupRounds = 9

// bench runs one workload.
type bench struct {
	w       workload
	in      *inputs
	hhcd    string // hhcd binary
	dir     string // directory for trace files
	seconds float64
	out     io.Writer // human-readable tables

	refs     refSet
	deferred []recorded // fresh-stream answers awaiting a reference
	timed    tally      // answers of the timed phases
	untimed  tally      // set-up and warm-up answers (checked, not counted)
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
}

func (b *bench) workers() int { return b.w.conns() * b.w.window }

// sender issues request k. In a cluster, even-numbered requests go to the
// pair's owner and odd ones to the other peer, so exactly half take the
// forward hop whatever the ring layout; elsewhere worker w uses connection
// w mod conns.
func (b *bench) sender(f *fleet, ring *cluster.Ring, rids bool, spans *[][]clientSpan) sendFunc {
	scr := make([]sendState, b.workers())
	return func(w int, k int64) (int64, reply) {
		p := b.in.pair(k)
		c := w % len(f.conns)
		if ring != nil {
			c = ring.Owner(p.U, p.V)
			if k%2 == 1 {
				c = (c + 1) % len(f.conns)
			}
		}
		rid := ""
		if rids {
			rid = "b" + strconv.FormatInt(k, 10)
		}
		start := time.Now()
		r := f.conns[c].paths(p, rid, &scr[w])
		if rids {
			(*spans)[w] = append((*spans)[w], clientSpan{rid: rid, peer: c % len(f.daemons),
				start: start.UnixNano(), dur: time.Since(start).Nanoseconds()})
		}
		return b.in.key(k), r
	}
}

// ringOf is the cluster's ring as hhcd builds it, nil for one peer.
func (b *bench) ringOf(f *fleet) *cluster.Ring {
	if len(f.daemons) < 2 {
		return nil
	}
	peers := make([]string, len(f.daemons))
	for i, d := range f.daemons {
		peers[i] = d.addr
	}
	return cluster.NewRing(peers, 0)
}

// judgeAll checks answers into t and returns how many are correct so far.
// Pooled workloads compare every answer with its prebuilt reference;
// fresh-stream answers are checked for errors, degradation and width now,
// and a seeded sample is kept for the reference comparison after the
// timed window (counted correct here: a wrong one fails the whole run).
func (b *bench) judgeAll(samples []sample, t *tally) int64 {
	full := b.w.m + 1
	var ok int64
	for i := range samples {
		s := &samples[i]
		a := s.rep.a
		v := judge(a, full, a.hash)
		switch {
		case b.in.pool != nil:
			v = judge(a, full, b.refs[s.key].hash)
		case v == okAnswer && sampledKey(b.in.seed, s.key):
			b.deferred = append(b.deferred, recorded{key: s.key, a: a, timed: t == &b.timed})
			s.ok = true
			ok++
			continue
		}
		t[v]++
		if v == okAnswer {
			s.ok = true
			ok++
		}
	}
	return ok
}

// checkDeferred builds references for the sampled fresh-stream answers
// and judges them.
func (b *bench) checkDeferred() error {
	keys := make([]int64, len(b.deferred))
	for i, r := range b.deferred {
		keys[i] = r.key
	}
	if err := buildRefs(b.in, keys, b.refs); err != nil {
		return err
	}
	for _, r := range b.deferred {
		t := &b.untimed
		if r.timed {
			t = &b.timed
		}
		t[judge(r.a, b.w.m+1, b.refs[r.key].hash)]++
	}
	b.deferred = nil
	return nil
}

// setup starts a fleet and runs the workload's warm phase: for pooled
// workloads with warm set, every pool pair is sent on every connection.
func (b *bench) setup(m mode) (*fleet, time.Duration, error) {
	f, d, err := b.startFleet(m)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if b.w.warm {
		for _, c := range f.conns {
			var cursor atomic.Int64
			scr := make([]sendState, b.w.window)
			samples := runCount(b.w.window, int64(len(b.in.pool)), &cursor, func(w int, k int64) (int64, reply) {
				return k, c.paths(b.in.pool[k], "", &scr[w])
			})
			b.judgeAll(samples, &b.untimed)
		}
	}
	return f, d + time.Since(start), nil
}

// closedOutcome is one closed-loop window with the fleet's deltas over it.
type closedOutcome struct {
	ph        phase
	d         deltas
	genCPU    time.Duration // the load generator's own CPU time
	qps       float64       // quiet-window median of correct answers/s
	cpuPerReq float64       // quiet-window median of fleet CPU µs per request
	spans     []clientSpan
}

// closed sends the workload's skip requests untimed, then runs a timed
// closed loop for d.
func (b *bench) closed(f *fleet, cursor *atomic.Int64, d time.Duration, rids bool) (closedOutcome, error) {
	var out closedOutcome
	per := make([][]clientSpan, b.workers())
	send := b.sender(f, b.ringOf(f), rids, &per)
	b.judgeAll(runCount(b.workers(), int64(b.w.skip), cursor, send), &b.untimed)
	for i := range per {
		per[i] = per[i][:0]
	}
	before, err := f.probeAll()
	if err != nil {
		return out, err
	}
	genBefore, err := readCPU(os.Getpid())
	if err != nil {
		return out, err
	}
	start := time.Now()
	smp, err := f.startSampler(start)
	if err != nil {
		return out, err
	}
	out.ph = runClosed(start, b.workers(), d, cursor, send)
	marks, err := smp.finish()
	if err != nil {
		return out, err
	}
	genAfter, err := readCPU(os.Getpid())
	if err != nil {
		return out, err
	}
	after, err := f.probeAll()
	if err != nil {
		return out, err
	}
	out.d = diff(before, after)
	out.genCPU = genAfter - genBefore
	b.judgeAll(out.ph.samples, &b.timed)
	qps, cpu, steal := closedWindows(out.ph.samples, marks)
	var quiet int
	out.qps, quiet = quietMedian(qps, steal)
	out.cpuPerReq, _ = quietMedian(cpu, steal)
	fmt.Fprintf(b.out, "%s: closed loop, %d of %d windows quiet: qps %.0f, cpu us/req %.2f, steal ticks %d\n",
		b.w.name, quiet, len(qps), qps, cpu, steal)
	for _, s := range per {
		out.spans = append(out.spans, s...)
	}
	return out, nil
}

// openOutcome is the open-loop phase with its quiet-window latencies.
type openOutcome struct {
	ph            phase
	p50, p90, p99 float64 // ms
}

// open runs the open-loop phase at the workload's rate for d.
func (b *bench) open(f *fleet, cursor *atomic.Int64, d time.Duration) (openOutcome, error) {
	var out openOutcome
	n := int64(b.w.rate * d.Seconds())
	send := b.sender(f, b.ringOf(f), false, nil)
	before, err := f.probeAll()
	if err != nil {
		return out, err
	}
	start := time.Now()
	smp, err := f.startSampler(start)
	if err != nil {
		return out, err
	}
	out.ph, err = runOpen(start, b.workers(), b.w.rate, n, cursor.Load(), send)
	marks, serr := smp.finish()
	if err != nil {
		return out, err
	}
	if serr != nil {
		return out, serr
	}
	after, err := f.probeAll()
	if err != nil {
		return out, err
	}
	cursor.Add(n)
	b.judgeAll(out.ph.samples, &b.timed)
	gcs := diff(before, after).mem["NumGC"] / uint64(len(f.daemons))
	windows := openWindowsOf(d, b.w.rate, gcs)
	p50s, p90s, p99s, steal := openWindows(out.ph.samples, windows, d, marks)
	var quiet int
	out.p50, quiet = quietMedian(p50s, steal)
	out.p90, _ = quietMedian(p90s, steal)
	out.p99, _ = quietMedian(p99s, steal)
	fmt.Fprintf(b.out, "%s: open loop, %d of %d windows quiet: p50 ms %.3f, p90 ms %.3f, p99 ms %.3f, steal ticks %d\n",
		b.w.name, quiet, len(p50s), p50s, p90s, p99s, steal)
	return out, nil
}

// span is the given share of the run's measured seconds.
func (b *bench) span(share float64) time.Duration {
	return time.Duration(b.seconds * share * float64(time.Second))
}

// poolRefs builds references for the whole pool before any timed window.
func (b *bench) poolRefs() error {
	b.refs = refSet{}
	if b.in.pool == nil {
		return nil
	}
	keys := make([]int64, len(b.in.pool))
	for i := range keys {
		keys[i] = int64(i)
	}
	return buildRefs(b.in, keys, b.refs)
}

// run executes the workload; trace selects the per-layer run.
func (b *bench) run(trace bool) (result, error) {
	var res result
	if err := b.poolRefs(); err != nil {
		return res, err
	}
	// Set up setupRounds times; the last fleet is measured.
	var setups []float64
	var f *fleet
	for i := 0; i < setupRounds; i++ {
		if f != nil {
			f.stop()
		}
		var d time.Duration
		var err error
		if f, d, err = b.setup(modeDefault); err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
	}
	// The closed loop gets the larger share: its windows give every
	// end-to-end metric, and the host's speed shifts for seconds at a time,
	// so a longer loop takes its median over more of those shifts.
	closedDur, openDur := b.span(0.7), b.span(0.3)
	if trace {
		closedDur, openDur = b.span(0.25), b.span(0.25)
	}

	var cursor atomic.Int64
	cl, err := b.closed(f, &cursor, closedDur, false)
	if err != nil {
		f.stop()
		return res, err
	}
	op, err := b.open(f, &cursor, openDur)
	if err != nil {
		f.stop()
		return res, err
	}
	rss, err := f.rss()
	redials := f.redials.Load()
	if e := f.errs.get(); e != nil {
		fmt.Fprintf(b.out, "%s: first request error: %v\n", b.w.name, e)
	}
	f.stop()
	if err != nil {
		return res, err
	}

	var lay *layers
	if trace {
		if lay, err = b.layerRuns(); err != nil {
			return res, err
		}
		redials += lay.redials
	}
	if err := b.checkDeferred(); err != nil {
		return res, err
	}

	fmt.Fprintf(b.out, "%s: closed %d req in %.2fs, open %d req at %.0f/s, setup %.4f s, answers%s\n",
		b.w.name, len(cl.ph.samples), cl.ph.elapsed.Seconds(), len(op.ph.samples), b.w.rate,
		setups, b.timed)

	res.attempted = b.timed.attempted()
	res.failed = b.timed.failed()
	res.correct = b.timed.incorrect()+b.untimed.incorrect() == 0
	if !trace {
		res.metrics = []metric{
			{"throughput_qps", cl.qps, "1/s"},
			{"cpu_us_per_req", cl.cpuPerReq, "us"},
			{"setup_s", median(setups), "s"},
			{"server_rss_mb", float64(rss) / (1 << 20), "MB"},
		}
		return res, nil
	}
	res.metrics, err = b.layerMetrics(cl, op, lay, redials)
	return res, err
}

// layers is what the per-layer run adds to the default run.
type layers struct {
	bare    closedOutcome
	traced  closedOutcome
	join    joined
	redials int64
}

// layerRuns runs the bare (no -listen) and traced fleets, one closed
// window each, and joins the traced run's spans.
func (b *bench) layerRuns() (*layers, error) {
	lay := &layers{}
	phaseDur := b.span(0.25)
	for _, m := range []mode{modeBare, modeTraced} {
		f, _, err := b.setup(m)
		if err != nil {
			return nil, err
		}
		var cursor atomic.Int64
		cl, err := b.closed(f, &cursor, phaseDur, m == modeTraced)
		lay.redials += f.redials.Load()
		f.stop() // drains hhcd, which flushes its -trace file
		if err != nil {
			return nil, err
		}
		if m == modeBare {
			lay.bare = cl
			continue
		}
		lay.traced = cl
		cf, err := os.Create(filepath.Join(b.dir, b.w.name+"-client.jsonl"))
		if err != nil {
			return nil, err
		}
		err = writeClientSpans(cf, cl.spans)
		if cerr := cf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		trees, err := loadTraces(f.traces, cl.spans)
		if err != nil {
			return nil, err
		}
		lay.join = joinSpans(cl.spans, trees)
		lay.join.print(b.out, b.w.name)
	}
	return lay, nil
}

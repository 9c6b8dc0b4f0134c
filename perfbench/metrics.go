package main

import "sort"

// maxReplayCases bounds the distinct pairs each in-process replay uses.
const maxReplayCases = 1024

// replayCases picks up to maxReplayCases distinct referenced pairs, in
// key order so the choice depends on the seed alone, with their reference
// containers rebuilt.
func (b *bench) replayCases() ([]replayCase, error) {
	keys := make([]int64, 0, len(b.refs))
	for k := range b.refs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) > maxReplayCases {
		keys = keys[:maxReplayCases]
	}
	cases := make([]replayCase, len(keys))
	for i, k := range keys {
		p := b.in.pairOfKey(k)
		_, paths, err := buildReference(b.in.g, p)
		if err != nil {
			return nil, err
		}
		cases[i] = replayCase{p: p, ref: paths}
	}
	return cases, nil
}

// layerMetrics computes the per-layer metrics of a trace run: response
// timing from the open-loop phase (the phase latency is measured on),
// counter and heap deltas from the default closed-loop window, and the
// bare and traced fleets' windows for the obs and tracing costs.
func (b *bench) layerMetrics(cl closedOutcome, op openOutcome, lay *layers, redials int64) ([]metric, error) {
	n := int64(len(cl.ph.samples))
	c := cl.d.counter
	perReq := func(v int64) float64 { return share(v, n) }

	var rtt, unattr, queue, exec, late, owned, foreign []int64
	for _, s := range op.ph.samples {
		late = append(late, s.late)
		if s.rep.a.failed {
			continue
		}
		rtt = append(rtt, s.rtt)
		unattr = append(unattr, s.rtt-s.rep.queue-s.rep.exec)
		queue = append(queue, s.rep.queue)
		exec = append(exec, s.rep.exec)
		if s.k%2 == 0 {
			owned = append(owned, s.rtt)
		} else {
			foreign = append(foreign, s.rtt)
		}
	}

	var constructs []int64
	for _, r := range b.refs {
		constructs = append(constructs, r.construct.Nanoseconds())
	}
	sort.Slice(constructs, func(i, j int) bool { return constructs[i] < constructs[j] })
	cases, err := b.replayCases()
	if err != nil {
		return nil, err
	}
	wt, err := replayWire(cases)
	if err != nil {
		return nil, err
	}
	hitNS, missNS, err := replayCache(b.in.g, cases)
	if err != nil {
		return nil, err
	}
	respBytes := wt.v2Bytes
	if v1 := b.v1Share(); v1 > 0 {
		respBytes = v1*wt.v1Bytes + (1-v1)*wt.v2Bytes
	}

	lookups := c["cache_hits_total"] + c["cache_misses_total"] + c["cache_inflight_waits_total"]
	var forwardShare, fallbackShare, hop float64
	if b.w.peers > 1 {
		forwardShare = perReq(c["cluster_forwarded_total"])
		fallbackShare = perReq(c["cluster_degraded_local_total"] + c["cluster_forward_errors_total"])
		hop = us(percentile(foreign, 0.5) - percentile(owned, 0.5))
	}

	return []metric{
		{"fail_share", share(b.timed.failed(), b.timed.attempted()), "ratio"},
		{"client.rtt_p50_us", us(percentile(rtt, 0.5)), "us"},
		{"client.rtt_p99_us", us(percentile(rtt, 0.99)), "us"},
		{"client.unattributed_p50_us", us(percentile(unattr, 0.5)), "us"},
		{"client.redials", float64(redials), "count"},
		{"server.queue_p50_us", us(percentile(queue, 0.5)), "us"},
		{"server.queue_p99_us", us(percentile(queue, 0.99)), "us"},
		{"server.exec_p50_us", us(percentile(exec, 0.5)), "us"},
		{"server.exec_p99_us", us(percentile(exec, 0.99)), "us"},
		{"server.coalesced_share", share(c["pathsvc_coalesced_total"], c["pathsvc_requests_total"]), "ratio"},
		{"server.degraded_share", share(c["pathsvc_degraded_total"], c["pathsvc_requests_total"]), "ratio"},
		{"server.shed_share", share(c["pathsvc_shed_total"], c["pathsvc_requests_total"]), "ratio"},
		{"server.allocs_per_req", perReq(int64(cl.d.mem["Mallocs"])), "count"},
		{"server.alloc_bytes_per_req", perReq(int64(cl.d.mem["TotalAlloc"])), "B"},
		{"server.gc_per_kreq", 1000 * perReq(int64(cl.d.mem["NumGC"])), "count"},
		{"wire.v2_encode_ns", wt.v2Encode, "ns"},
		{"wire.v2_decode_ns", wt.v2Decode, "ns"},
		{"wire.v1_encode_ns", wt.v1Encode, "ns"},
		{"wire.v1_decode_ns", wt.v1Decode, "ns"},
		{"wire.resp_bytes", respBytes, "B"},
		{"cache.hit_ratio", share(c["cache_hits_total"], lookups), "ratio"},
		{"cache.inflight_wait_share", share(c["cache_inflight_waits_total"], lookups), "ratio"},
		{"cache.evictions_per_kreq", 1000 * perReq(c["cache_evictions_total"]), "count"},
		{"cache.hit_ns", hitNS, "ns"},
		{"cache.miss_ns", missNS, "ns"},
		{"core.construct_p50_us", us(sorted(constructs, 0.5)), "us"},
		{"core.construct_p99_us", us(sorted(constructs, 0.99)), "us"},
		{"core.allocs_per_construct", replayConstructAllocs(b.in.g, cases), "count"},
		{"cluster.forward_share", forwardShare, "ratio"},
		{"cluster.fallback_share", fallbackShare, "ratio"},
		{"cluster.hop_p50_us", hop, "us"},
		{"cluster.owner_ns", replayOwner([]string{"127.0.0.1:1", "127.0.0.1:2"}, cases), "ns"},
		{"obs.cost_us_per_req", cl.cpuPerReq - lay.bare.cpuPerReq, "us"},
		{"loadgen.late_p99_ms", ms(percentile(late, 0.99)), "ms"},
		{"loadgen.cpu_us_per_req", us(cl.genCPU.Nanoseconds()) / float64(max(n, 1)), "us"},
		{"loadgen.open_samples", float64(len(op.ph.samples)), "count"},
		{"loadgen.latency_p50_ms", op.p50, "ms"},
		{"loadgen.latency_p90_ms", op.p90, "ms"},
		{"loadgen.latency_p99_ms", op.p99, "ms"},
		{"trace.admission_p50_us", us(lay.join.p50("admission")), "us"},
		{"trace.queue_p50_us", us(lay.join.p50("queue")), "us"},
		{"trace.exec_p50_us", us(lay.join.p50("exec")), "us"},
		{"trace.encode_p50_us", us(lay.join.p50("encode")), "us"},
		{"trace.forward_p50_us", us(lay.join.p50("forward")), "us"},
		{"trace.unattributed_p50_us", us(lay.join.p50("unattributed")), "us"},
		{"trace.joined_share", share(int64(lay.join.matched), int64(lay.join.clients)), "ratio"},
		{"trace.overhead", 1 - lay.traced.qps/cl.qps, "ratio"},
		{"trace.spans_dropped", float64(lay.traced.d.counter["obs_trace_dropped_total"]), "count"},
	}, nil
}

// v1Share is the fraction of the workload's connections speaking v1.
func (b *bench) v1Share() float64 {
	v1 := 0
	for _, p := range b.w.protos {
		if p == 1 {
			v1++
		}
	}
	return float64(v1) / float64(len(b.w.protos))
}

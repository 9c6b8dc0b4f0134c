package main

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hhc"
	"repro/internal/pathsvc"
)

// In-process replays of the workload's own inputs through the public
// functions of each layer. Each timing is the median over replayRounds
// passes of the per-operation mean.

const replayRounds = 5

// replayCase is one request of the workload with its reference answer.
type replayCase struct {
	p   pathsvc.NodePair
	ref [][]hhc.Node
}

// wireTimes are per request+response pair nanoseconds.
type wireTimes struct {
	v2Encode, v2Decode, v1Encode, v1Decode float64
	v2Bytes, v1Bytes                       float64 // mean response frame bytes
}

func replayWire(cases []replayCase) (wireTimes, error) {
	var wt wireTimes
	n := len(cases)
	v2req := make([][]byte, n)
	v2resp := make([][]byte, n)
	v1req := make([]pathsvc.Request, n)
	v1resp := make([]pathsvc.Response, n)
	v1reqJSON := make([][]byte, n)
	v1respJSON := make([][]byte, n)
	for i, c := range cases {
		req := pathsvc.RequestV2{ID: uint64(i + 1), Op: pathsvc.OpCodePaths, U: c.p.U, V: c.p.V}
		resp := pathsvc.ResponseV2{ID: uint64(i + 1), Op: pathsvc.OpCodePaths, Paths: c.ref,
			Width: len(c.ref), Full: len(c.ref), QueueNS: 1000, ExecNS: 1000}
		v2req[i] = pathsvc.AppendRequestV2(nil, &req)
		v2resp[i] = pathsvc.AppendResponseV2(nil, &resp)
		wt.v2Bytes += float64(4 + len(v2resp[i]))
		v1req[i] = pathsvc.Request{Ver: pathsvc.ProtocolVersion, ID: uint64(i + 1), Op: pathsvc.OpPaths,
			U: hhc.FormatNodeWire(c.p.U), V: hhc.FormatNodeWire(c.p.V)}
		strs := make([][]string, len(c.ref))
		for j, path := range c.ref {
			for _, u := range path {
				strs[j] = append(strs[j], hhc.FormatNodeWire(u))
			}
		}
		v1resp[i] = pathsvc.Response{Ver: pathsvc.ProtocolVersion, ID: uint64(i + 1), Op: pathsvc.OpPaths,
			Paths: strs, Width: len(strs), Full: len(strs), QueueNS: 1000, ExecNS: 1000}
		var err error
		if v1reqJSON[i], err = json.Marshal(&v1req[i]); err != nil {
			return wt, err
		}
		if v1respJSON[i], err = json.Marshal(&v1resp[i]); err != nil {
			return wt, err
		}
		wt.v1Bytes += float64(4 + len(v1respJSON[i]))
	}
	wt.v2Bytes /= float64(n)
	wt.v1Bytes /= float64(n)

	buf := make([]byte, 0, 64<<10)
	wt.v2Encode = medianRounds(replayRounds, func() (time.Duration, int) {
		start := time.Now()
		for i, c := range cases {
			req := pathsvc.RequestV2{ID: uint64(i + 1), Op: pathsvc.OpCodePaths, U: c.p.U, V: c.p.V}
			resp := pathsvc.ResponseV2{ID: uint64(i + 1), Op: pathsvc.OpCodePaths, Paths: c.ref,
				Width: len(c.ref), Full: len(c.ref), QueueNS: 1000, ExecNS: 1000}
			buf = pathsvc.AppendRequestV2(buf[:0], &req)
			buf = pathsvc.AppendResponseV2(buf[:0], &resp)
		}
		return time.Since(start), n
	})
	var dreq pathsvc.RequestV2
	var dresp pathsvc.ResponseV2
	var derr error
	wt.v2Decode = medianRounds(replayRounds, func() (time.Duration, int) {
		start := time.Now()
		for i := range cases {
			if err := pathsvc.DecodeRequestV2(v2req[i], &dreq); err != nil {
				derr = err
			}
			if err := pathsvc.DecodeResponseV2(v2resp[i], &dresp); err != nil {
				derr = err
			}
		}
		return time.Since(start), n
	})
	if derr != nil {
		return wt, derr
	}
	wt.v1Encode = medianRounds(replayRounds, func() (time.Duration, int) {
		start := time.Now()
		for i := range cases {
			if err := pathsvc.WriteFrame(io.Discard, &v1req[i], 0); err != nil {
				derr = err
			}
			if err := pathsvc.WriteFrame(io.Discard, &v1resp[i], 0); err != nil {
				derr = err
			}
		}
		return time.Since(start), n
	})
	wt.v1Decode = medianRounds(replayRounds, func() (time.Duration, int) {
		start := time.Now()
		for i := range cases {
			if _, err := pathsvc.DecodeRequest(v1reqJSON[i]); err != nil {
				derr = err
			}
			if _, err := pathsvc.DecodeResponse(v1respJSON[i]); err != nil {
				derr = err
			}
		}
		return time.Since(start), n
	})
	return wt, derr
}

// replayCache times cache.Paths through a cache built with hhcd's
// defaults: one pass over distinct pairs (all misses), then a second over
// the same pairs (all hits while they fit the capacity).
func replayCache(g *hhc.Graph, cases []replayCase) (hitNS, missNS float64, err error) {
	var c *cache.Cache
	missNS = medianRounds(replayRounds, func() (time.Duration, int) {
		if c, err = cache.New(g, cache.Options{}); err != nil {
			return 0, 0
		}
		start := time.Now()
		for _, rc := range cases {
			if _, e := c.Paths(rc.p.U, rc.p.V, core.Options{}); e != nil {
				err = e
			}
		}
		return time.Since(start), len(cases)
	})
	if err != nil {
		return 0, 0, err
	}
	hitNS = medianRounds(replayRounds, func() (time.Duration, int) {
		start := time.Now()
		for _, rc := range cases {
			if _, e := c.Paths(rc.p.U, rc.p.V, core.Options{}); e != nil {
				err = e
			}
		}
		return time.Since(start), len(cases)
	})
	return hitNS, missNS, err
}

// replayConstruct returns the mean allocations of core.DisjointPathsOpt
// over the cases (one MemStats reading around the whole loop).
func replayConstructAllocs(g *hhc.Graph, cases []replayCase) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, rc := range cases {
		_, _ = core.DisjointPathsOpt(g, rc.p.U, rc.p.V, core.Options{})
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(len(cases))
}

// replayOwner times cluster ring ownership lookups.
func replayOwner(peers []string, cases []replayCase) float64 {
	ring := cluster.NewRing(peers, 0)
	sink := 0
	ns := medianRounds(replayRounds, func() (time.Duration, int) {
		start := time.Now()
		for _, rc := range cases {
			sink += ring.Owner(rc.p.U, rc.p.V)
		}
		return time.Since(start), len(cases)
	})
	_ = sink
	return ns
}

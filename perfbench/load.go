package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hhc"
	"repro/internal/pathsvc"
)

// conn is one client connection of the load generator, redialed after a
// transport error poisons it.
type conn struct {
	proto   int
	rc      *pathsvc.Reconn
	redials *atomic.Int64
	errs    *firstErr
}

// firstErr keeps the first request error for the run's summary.
type firstErr struct {
	mu  sync.Mutex
	err error // guarded by mu
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

func dialConn(addr string, proto int, redials *atomic.Int64, errs *firstErr) (*conn, error) {
	c := &conn{proto: proto, rc: pathsvc.NewReconn(addr, pathsvc.DialOptions{Proto: proto}),
		redials: redials, errs: errs}
	cl, err := c.rc.Client()
	if err != nil {
		return nil, err
	}
	if err := cl.Ping(); err != nil {
		c.rc.Close()
		return nil, err
	}
	return c, nil
}

// sendState is one sender's reusable request/response state.
type sendState struct {
	req  pathsvc.RequestV2
	resp pathsvc.ResponseV2
}

// reply is one response as the load generator sees it.
type reply struct {
	a           answer
	queue, exec int64 // server-reported ns
}

// paths sends one container query and reduces the response to its
// checkable answer plus the server's queue/exec timing.
func (c *conn) paths(p pathsvc.NodePair, rid string, sc *sendState) reply {
	cl, err := c.rc.Client()
	if err != nil {
		c.errs.set(err)
		return reply{a: answer{failed: true}}
	}
	var r reply
	if c.proto >= pathsvc.ProtocolV2 {
		sc.req = pathsvc.RequestV2{Op: pathsvc.OpCodePaths, U: p.U, V: p.V, RID: rid}
		err = cl.DoV2(&sc.req, &sc.resp)
		if err == nil {
			r.a = answer{hash: hashPaths(sc.resp.Paths), width: int32(len(sc.resp.Paths)), degraded: sc.resp.Degraded}
			r.queue, r.exec = sc.resp.QueueNS, sc.resp.ExecNS
		}
	} else {
		var resp *pathsvc.Response
		resp, err = cl.Do(pathsvc.Request{Op: pathsvc.OpPaths, RID: rid,
			U: hhc.FormatNodeWire(p.U), V: hhc.FormatNodeWire(p.V)})
		if err == nil {
			r.a = answer{width: int32(len(resp.Paths)), degraded: resp.Degraded}
			// A malformed node leaves hash 0, which the checker judges wrong.
			r.a.hash, _ = hashWirePaths(resp.Paths)
			r.queue, r.exec = resp.QueueNS, resp.ExecNS
		}
	}
	if err != nil {
		if errors.Is(err, pathsvc.ErrClientBroken) {
			c.rc.Invalidate(cl)
			c.redials.Add(1)
		}
		c.errs.set(err)
		r.a.failed = true
	}
	return r
}

// sample is one timed request. Times are nanoseconds; due is the instant
// the schedule said to send (the send instant itself in a closed loop).
type sample struct {
	k    int64 // request number in the stream
	key  int64
	rep  reply
	ok   bool  // judged correct (see bench.judgeAll)
	at   int64 // offset from phase start: completion (closed loop) or due instant (open loop)
	late int64 // send - due
	lat  int64 // done - due
	rtt  int64 // done - send
}

// sendFunc issues request k on behalf of worker w.
type sendFunc func(w int, k int64) (key int64, r reply)

// phase is the outcome of one load phase.
type phase struct {
	samples []sample
	elapsed time.Duration
}

// runClosed keeps every worker busy back to back from start until the
// duration has passed: a closed loop, so a slower server receives less
// load. Request numbers come from cursor, shared across workers.
func runClosed(start time.Time, workers int, d time.Duration, cursor *atomic.Int64, send sendFunc) phase {
	deadline := start.Add(d)
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := cursor.Add(1) - 1
				t0 := time.Now()
				key, r := send(w, k)
				done := time.Now()
				rtt := done.Sub(t0).Nanoseconds()
				per[w] = append(per[w], sample{k: k, key: key, rep: r, at: done.Sub(start).Nanoseconds(), lat: rtt, rtt: rtt})
			}
		}(w)
	}
	wg.Wait()
	return phase{samples: merge(per), elapsed: time.Since(start)}
}

// runCount sends n requests with every worker busy, untimed (warm-up and
// set-up traffic).
func runCount(workers int, n int64, cursor *atomic.Int64, send sendFunc) []sample {
	end := cursor.Load() + n
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := cursor.Add(1) - 1
				if k >= end {
					return
				}
				key, r := send(w, k)
				per[w] = append(per[w], sample{k: k, key: key, rep: r})
			}
		}(w)
	}
	wg.Wait()
	return merge(per)
}

// pacerTick bounds how late the pacer can notice a due request.
const pacerTick = 50 * time.Microsecond

// runOpen sends n requests on a fixed schedule from start, request i due
// at start + i/rate: a pacer hands each request to the workers once it is
// due. A request is never dropped: when every worker is busy it waits for
// one, and its latency counts from the due instant, so a stall shows in
// every request queued behind it (no coordinated omission). Lateness
// (send - due) measures how far the generator fell behind.
func runOpen(start time.Time, workers int, rate float64, n int64, base int64, send sendFunc) (phase, error) {
	dueAt := func(i int64) time.Duration { return time.Duration(float64(i) / rate * 1e9) }
	p, err := newPacer(min(time.Duration(1e9/rate), pacerTick))
	if err != nil {
		return phase{}, err
	}
	defer p.close()
	// Sized to the number of sends, so the pacer never blocks on busy
	// workers and the schedule holds whatever the server does.
	jobs := make(chan int64, n)
	paced := make(chan error, 1)
	go func() {
		defer close(jobs)
		for i := int64(0); i < n; {
			for ; i < n && dueAt(i) <= time.Since(start); i++ {
				jobs <- i
			}
			if i < n {
				if err := p.wait(); err != nil {
					paced <- err
					return
				}
			}
		}
		paced <- nil
	}()
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				at := dueAt(i)
				due := start.Add(at)
				t0 := time.Now()
				key, r := send(w, base+i)
				done := time.Now()
				per[w] = append(per[w], sample{k: base + i, key: key, rep: r, at: at.Nanoseconds(),
					late: t0.Sub(due).Nanoseconds(), lat: done.Sub(due).Nanoseconds(), rtt: done.Sub(t0).Nanoseconds()})
			}
		}(w)
	}
	wg.Wait()
	if err := <-paced; err != nil {
		return phase{}, fmt.Errorf("pacer: %w", err)
	}
	return phase{samples: merge(per), elapsed: time.Since(start)}, nil
}

func merge(per [][]sample) []sample {
	n := 0
	for _, p := range per {
		n += len(p)
	}
	out := make([]sample, 0, n)
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

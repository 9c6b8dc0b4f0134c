package pathsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hhc"
	"repro/internal/obs"
)

// startServer binds a server on a loopback port and serves it in the
// background. Tests that do not shut down explicitly get a cleanup drain.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startServerOn(t, cfg, ln)
}

// startServerOn is startServer on a caller-supplied listener.
func startServerOn(t *testing.T, cfg Config, ln net.Listener) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		_ = ln.Close()
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
		checkLedger(t, srv)
	})
	return srv, ln.Addr().String()
}

// checkLedger asserts the request ledger of a drained server balances:
// every decoded request was answered into exactly one terminal bucket.
func checkLedger(tb testing.TB, srv *Server) {
	tb.Helper()
	snap := srv.Counters()
	if terminal := snap.Terminal(); snap.Requests != terminal {
		tb.Errorf("ledger imbalance: requests=%d terminal=%d (%s)", snap.Requests, terminal, snap)
	}
}

// dial connects a test client.
func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// verifyContainer checks a wire-form container parses and is node-valid on g.
func verifyContainer(t *testing.T, g *hhc.Graph, u, v string, paths [][]string) {
	t.Helper()
	for i, p := range paths {
		if len(p) == 0 {
			t.Fatalf("path %d empty", i)
		}
		if p[0] != u || p[len(p)-1] != v {
			t.Fatalf("path %d endpoints %s..%s, want %s..%s", i, p[0], p[len(p)-1], u, v)
		}
		nodes := make([]hhc.Node, len(p))
		for j, s := range p {
			n, err := g.ParseNode(s)
			if err != nil {
				t.Fatalf("path %d node %q: %v", i, s, err)
			}
			nodes[j] = n
		}
		un, _ := g.ParseNode(u)
		vn, _ := g.ParseNode(v)
		if err := g.VerifyPath(un, vn, nodes); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
	}
}

func TestServeBasicOps(t *testing.T) {
	_, addr := startServer(t, Config{M: 3})
	c := dial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.M != 3 || info.Full != 4 {
		t.Fatalf("info = m:%d full:%d, want m:3 full:4", info.M, info.Full)
	}

	g, _ := hhc.New(3)
	u, v := "0x0:0", "0xff:7"
	resp, err := c.Paths(u, v, 0, 0)
	if err != nil {
		t.Fatalf("paths: %v", err)
	}
	if len(resp.Paths) != 4 || resp.Width != 4 || resp.Full != 4 || resp.Degraded {
		t.Fatalf("paths width=%d full=%d degraded=%v len=%d, want full 4-wide container",
			resp.Width, resp.Full, resp.Degraded, len(resp.Paths))
	}
	verifyContainer(t, g, u, v, resp.Paths)

	// MaxPaths truncates without flagging degradation.
	resp, err = c.Paths(u, v, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Paths) != 2 || resp.Degraded {
		t.Fatalf("maxpaths=2 returned %d paths, degraded=%v", len(resp.Paths), resp.Degraded)
	}

	// Route avoids a declared fault.
	full, err := c.Paths(u, v, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fault := full.Paths[0][1] // interior node of the first path
	route, err := c.Route(u, v, []string{fault}, 0)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if len(route.Paths) != 1 {
		t.Fatalf("route returned %d paths, want 1", len(route.Paths))
	}
	for _, n := range route.Paths[0] {
		if n == fault {
			t.Fatalf("route crosses declared fault %s", fault)
		}
	}

	// Batch answers per pair.
	batch, err := c.Batch([][2]string{{u, v}, {"0x1:0", "0x1:5"}, {"bogus", v}}, 0)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(batch.Results))
	}
	if batch.Results[0].Err != "" || len(batch.Results[0].Paths) != 4 {
		t.Fatalf("batch item 0: err=%q paths=%d", batch.Results[0].Err, len(batch.Results[0].Paths))
	}
	if batch.Results[2].Err == "" {
		t.Fatal("batch item with bogus address did not report an error")
	}

	// Bad requests are typed and do not kill the connection.
	var srvErr *ServerError
	if _, err := c.Paths("nonsense", v, 0, 0); !errors.As(err, &srvErr) || srvErr.Code != CodeBadRequest {
		t.Fatalf("bad address: got %v, want bad_request", err)
	}
	if _, err := c.Do(Request{Op: "nope"}); !errors.As(err, &srvErr) || srvErr.Code != CodeBadRequest {
		t.Fatalf("unknown op: got %v, want bad_request", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after bad requests: %v", err)
	}
}

// TestGracefulShutdownDrains: requests admitted before Shutdown are all
// answered (none dropped), Serve exits cleanly, and the listener refuses
// new connections afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	const inflight = 6
	srv, err := New(Config{M: 3, Workers: 2, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv.stallForTest = func() { <-release }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Distinct pairs, one client each, fired concurrently.
	g, _ := hhc.New(3)
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		u := g.FormatNode(hhc.Node{X: uint64(i), Y: 0})
		v := g.FormatNode(hhc.Node{X: uint64(0xf0 ^ i), Y: 5})
		go func() {
			c, err := Dial(addr)
			if err != nil {
				results <- err
				return
			}
			defer c.Close()
			resp, err := c.Paths(u, v, 0, time.Minute)
			if err == nil && len(resp.Paths) != 4 {
				err = fmt.Errorf("got %d paths, want 4", len(resp.Paths))
			}
			results <- err
		}()
	}
	waitFor(t, "all requests admitted", func() bool {
		return srv.Counters().Admitted == inflight
	})

	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	// The drain must wait for the stalled workers, not abandon them.
	time.Sleep(20 * time.Millisecond)
	close(release)

	for i := 0; i < inflight; i++ {
		if err := <-results; err != nil {
			t.Errorf("in-flight request %d dropped by shutdown: %v", i, err)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	checkLedger(t, srv)
	snap := srv.Counters()
	if snap.Completed < inflight {
		t.Fatalf("completed %d < admitted %d: shutdown dropped answers", snap.Completed, inflight)
	}
	// No new work after close.
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("listener still accepting after drained shutdown")
	}
}

// TestDrainRefusalsBalanceLedger: work the drain refuses is still
// answered and counted. A reader is parked in AdmitBlock on a full queue
// when Shutdown begins, with a second frame already buffered behind it
// that races the drain; both get a typed shutdown answer, and every
// decoded request lands in exactly one terminal bucket.
func TestDrainRefusalsBalanceLedger(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 1, QueueDepth: 1, Admission: AdmitBlock})
	release := make(chan struct{})
	srv.stallForTest = func() { <-release }

	// Occupy the one worker, then the one queue slot.
	g, _ := hhc.New(3)
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		c := dial(t, addr)
		u, v := g.FormatNode(hhc.Node{X: uint64(i), Y: 1}), g.FormatNode(hhc.Node{X: 0x80, Y: 2})
		go func() {
			_, err := c.Paths(u, v, 0, time.Minute)
			results <- err
		}()
		waitFor(t, "worker and queue occupied", func() bool { return srv.Counters().Admitted == int64(i+1) })
	}

	// One write carries two frames: the first parks the reader in
	// AdmitBlock, the second waits in the reader's buffer behind it.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frames []byte
	for _, req := range []RequestV2{
		{ID: 1, Op: OpCodePaths, U: hhc.Node{X: 7, Y: 1}, V: hhc.Node{X: 0x80, Y: 2}},
		{ID: 2, Op: OpCodePing},
	} {
		frame := AppendRequestV2(appendFramePrefix(nil), &req)
		patchFramePrefix(frame)
		frames = append(frames, frame...)
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reader parked on the full queue", func() bool { return srv.Counters().Requests == 3 })

	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for want := uint64(1); want <= 2; want++ {
		payload, err := ReadFrame(conn, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: read: %v", want, err)
		}
		var resp ResponseV2
		if err := DecodeResponseV2(payload, &resp); err != nil {
			t.Fatalf("frame %d: decode: %v", want, err)
		}
		if resp.ID != want || resp.Code != StatusShutdown {
			t.Errorf("answer %d: id=%d status=%d, want id %d refused with shutdown", want, resp.ID, resp.Code, want)
		}
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request dropped by the drain: %v", err)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	snap := srv.Counters()
	if snap.Requests != 4 || snap.Completed != 2 || snap.Refused != 2 {
		t.Errorf("drained ledger %s, want requests=4 completed=2 refused=2", snap)
	}
	checkLedger(t, srv)
}

// TestDeadlineExceededTyped: a request whose deadline expires while it
// waits returns the typed ErrDeadlineExceeded through the client.
func TestDeadlineExceededTyped(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 1, QueueDepth: 8})
	block := make(chan struct{})
	var once sync.Once
	srv.stallForTest = func() { once.Do(func() { <-block }) }

	// Occupy the single worker, then queue a request with a tiny deadline.
	occupier := dial(t, addr)
	occDone := make(chan struct{})
	go func() {
		defer close(occDone)
		_, _ = occupier.Paths("0x1:0", "0x2:3", 0, time.Minute)
	}()
	waitFor(t, "worker occupied", func() bool { return srv.activeWorkers.Load() == 1 })

	// Release the worker only after the queued request's deadline lapses.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(block)
	}()
	c := dial(t, addr)
	_, err := c.Paths("0x3:0", "0x4:4", 0, 10*time.Millisecond)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	if srv.Counters().Deadline == 0 {
		t.Fatal("deadline counter not incremented")
	}
	<-occDone
}

// TestCoalesceInflight: identical (u, v) queries that arrive while both
// workers are held are each queued and admitted on their own, each gets a
// full answer, and the cache's singleflight (or memo) builds the container
// once for the whole fan-in.
func TestCoalesceInflight(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 2, QueueDepth: 8})
	release := make(chan struct{})
	srv.stallForTest = func() { <-release }

	const dup = 3
	g, _ := hhc.New(3)
	u, v := "0x5:1", "0xa:6"
	results := make(chan *Response, 1+dup)
	errs := make(chan error, 1+dup)
	for i := 0; i < 1+dup; i++ {
		go func() {
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				results <- nil
				return
			}
			defer c.Close()
			resp, err := c.Paths(u, v, 0, time.Minute)
			errs <- err
			results <- resp
		}()
	}
	waitFor(t, "every duplicate admitted", func() bool {
		return srv.Counters().Admitted == 1+dup
	})
	close(release)
	for i := 0; i < 1+dup; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("duplicate request %d: %v", i, err)
		}
		resp := <-results
		if len(resp.Paths) != 4 || resp.Width != 4 {
			t.Fatalf("duplicate request %d got %d paths, width %d, want 4 and 4", i, len(resp.Paths), resp.Width)
		}
		if resp.Coalesced {
			t.Fatalf("duplicate request %d flagged coalesced", i)
		}
		verifyContainer(t, g, u, v, resp.Paths)
	}
	if admitted := srv.Counters().Admitted; admitted != 1+dup {
		t.Fatalf("admitted = %d, want %d: each duplicate takes its own queue slot", admitted, 1+dup)
	}
	// The cache saw exactly one construction for the whole fan-in.
	cs := srv.CacheSnapshot()
	if cs.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (%s)", cs.Misses, cs)
	}
	if lookups := cs.Lookups(); lookups != 1+dup {
		t.Fatalf("cache counted %d lookups, want one per worker execution (%s)", lookups, cs)
	}
}

// TestShedOverload: once the queue is full, reject-mode admission answers
// CodeOverload with a retry hint instead of queueing unboundedly. The hint
// keeps full resolution on v2 and rounds up to whole milliseconds on v1,
// never down to 0 (which would read as "no hint").
func TestShedOverload(t *testing.T) {
	cases := []struct {
		proto      int
		retryAfter time.Duration
		want       time.Duration
	}{
		{ProtocolVersion, 75 * time.Millisecond, 75 * time.Millisecond},
		{ProtocolV2, 75 * time.Millisecond, 75 * time.Millisecond},
		{ProtocolVersion, 300 * time.Microsecond, time.Millisecond},
		{ProtocolV2, 300 * time.Microsecond, 300 * time.Microsecond},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("v%d/%v", tc.proto, tc.retryAfter), func(t *testing.T) {
			srv, addr := startServer(t, Config{M: 3, Workers: 1, QueueDepth: 1, Admission: AdmitReject,
				RetryAfter: tc.retryAfter})
			release := make(chan struct{})
			srv.stallForTest = func() { <-release }
			defer close(release)

			// Occupy the worker, fill the queue, then overflow it, one step at
			// a time: a second request racing the worker's pickup of the first
			// would find the queue full and be shed. Distinct pairs keep the
			// cache out of the picture.
			bg := []struct{ u, v string }{{"0x1:0", "0x2:3"}, {"0x3:1", "0x4:4"}}
			for i, p := range bg {
				c := dial(t, addr)
				go func(u, v string) { _, _ = c.Paths(u, v, 0, time.Minute) }(p.u, p.v)
				waitFor(t, "worker busy, queue filling", func() bool {
					return srv.activeWorkers.Load() == 1 && len(srv.queue) == i
				})
			}

			c, err := DialWith(addr, DialOptions{Proto: tc.proto})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var code string
			if tc.proto == ProtocolV2 {
				var resp ResponseV2
				err = c.PathsV2(hhc.Node{X: 0x5, Y: 2}, hhc.Node{X: 0x6, Y: 5}, 0, 0, &resp)
				code = resp.CodeString()
			} else {
				var resp *Response
				resp, err = c.Paths("0x5:2", "0x6:5", 0, 0)
				if resp != nil {
					code = resp.Code
				}
			}
			if !errors.Is(err, ErrOverload) {
				t.Fatalf("got %v, want ErrOverload", err)
			}
			var srvErr *ServerError
			if !errors.As(err, &srvErr) || srvErr.RetryAfter != tc.want {
				t.Fatalf("retry-after hint = %v, want %v", srvErr.RetryAfter, tc.want)
			}
			if code != CodeOverload {
				t.Fatalf("response code %q, want overload", code)
			}
			if srv.Counters().Shed == 0 {
				t.Fatal("shed counter not incremented")
			}
		})
	}
}

// TestBlockAdmission: block mode parks the submitting connection instead
// of shedding, and the parked request completes once space frees up.
func TestBlockAdmission(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 1, QueueDepth: 1, Admission: AdmitBlock})
	release := make(chan struct{})
	srv.stallForTest = func() { <-release }

	pairsUV := []struct{ u, v string }{
		{"0x1:0", "0x2:3"}, {"0x3:1", "0x4:4"}, {"0x5:2", "0x6:5"},
	}
	errs := make(chan error, len(pairsUV))
	for _, p := range pairsUV {
		c := dial(t, addr)
		go func(u, v string) {
			_, err := c.Paths(u, v, 0, time.Minute)
			errs <- err
		}(p.u, p.v)
	}
	// Third request has nowhere to go; block mode must not shed it.
	time.Sleep(50 * time.Millisecond)
	if snap := srv.Counters(); snap.Shed != 0 {
		t.Fatalf("block mode shed %d requests", snap.Shed)
	}
	close(release)
	for range pairsUV {
		if err := <-errs; err != nil {
			t.Fatalf("blocked request failed: %v", err)
		}
	}
}

// TestDegradeUnderPressure: queue pressure past the shed threshold
// truncates path responses to DegradeWidth and flags them.
func TestDegradeUnderPressure(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 1, QueueDepth: 8,
		ShedThreshold: 0.25, DegradeWidth: 2})
	release := make(chan struct{})
	srv.stallForTest = func() { <-release }

	// Occupy the worker and put two requests in the queue (past the
	// 0.25 * 8 = 2 threshold).
	bg := []struct{ u, v string }{{"0x1:0", "0x2:3"}, {"0x3:1", "0x4:4"}, {"0x5:2", "0x6:5"}}
	errs := make(chan error, len(bg))
	for _, p := range bg {
		c := dial(t, addr)
		go func(u, v string) {
			_, err := c.Paths(u, v, 0, time.Minute)
			errs <- err
		}(p.u, p.v)
	}
	waitFor(t, "queue past shed threshold", func() bool { return len(srv.queue) >= 2 })

	c := dial(t, addr)
	got := make(chan *Response, 1)
	go func() {
		resp, err := c.Paths("0x7:3", "0x8:6", 0, time.Minute)
		if err != nil {
			t.Errorf("degraded request failed: %v", err)
		}
		got <- resp
	}()
	waitFor(t, "degraded request admitted", func() bool { return srv.Counters().Admitted == 4 })
	close(release)
	for range bg {
		if err := <-errs; err != nil {
			t.Fatalf("background request: %v", err)
		}
	}
	resp := <-got
	if resp == nil {
		t.Fatal("no degraded response")
	}
	if !resp.Degraded || len(resp.Paths) != 2 || resp.Full != 4 {
		t.Fatalf("degraded=%v width=%d full=%d, want degraded 2-of-4", resp.Degraded, len(resp.Paths), resp.Full)
	}
	if srv.Counters().Degraded == 0 {
		t.Fatal("degraded counter not incremented")
	}
}

// TestMetricsRegistered: with a registry configured, the pathsvc_* and
// cache_* families show up in the exposition after traffic.
func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := startServer(t, Config{M: 3, Reg: reg})
	c := dial(t, addr)
	if _, err := c.Paths("0x0:0", "0x3:3", 0, 0); err != nil {
		t.Fatal(err)
	}
	var sb syncBuilder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"pathsvc_requests_total 1",
		"pathsvc_admitted_total 1",
		"pathsvc_completed_total 1",
		"pathsvc_queue_capacity 256",
		"pathsvc_request_seconds_bucket",
		"pathsvc_queue_wait_seconds_bucket",
		"cache_misses_total 1",
	} {
		if !contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestConcurrentHammer drives many connections with overlapping pairs and
// mixed ops; meant to run under -race (CI runs go test -race ./...).
func TestConcurrentHammer(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 4, QueueDepth: 64})
	g, _ := hhc.New(3)
	pairs := []struct{ u, v hhc.Node }{
		{hhc.Node{X: 0, Y: 0}, hhc.Node{X: 0xff, Y: 7}},
		{hhc.Node{X: 1, Y: 2}, hhc.Node{X: 0x42, Y: 5}},
		{hhc.Node{X: 7, Y: 1}, hhc.Node{X: 7, Y: 6}},
	}
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	errsCh := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errsCh <- err
				return
			}
			defer c.Close()
			for j := 0; j < per; j++ {
				p := pairs[(i+j)%len(pairs)]
				u, v := g.FormatNode(p.u), g.FormatNode(p.v)
				switch j % 3 {
				case 0:
					_, err = c.Paths(u, v, 0, time.Second)
				case 1:
					_, err = c.Route(u, v, nil, time.Second)
				default:
					_, err = c.Batch([][2]string{{u, v}}, time.Second)
				}
				if err != nil {
					errsCh <- fmt.Errorf("goroutine %d op %d: %w", i, j, err)
					return
				}
			}
			errsCh <- nil
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if err := <-errsCh; err != nil {
			t.Fatal(err)
		}
	}
	if snap := srv.Counters(); snap.Completed != goroutines*per {
		t.Fatalf("completed %d, want %d", snap.Completed, goroutines*per)
	}
}

// TestOversizeBatchTyped: a batch whose reply cannot fit one frame is
// refused with a typed bad_request naming the limit. The regression was a
// silently dropped response frame that left the client blocked forever.
func TestOversizeBatchTyped(t *testing.T) {
	_, addr := startServer(t, Config{M: 3, MaxFrame: 2048})
	c := dial(t, addr)

	pairs := make([][2]string, 16)
	for i := range pairs {
		pairs[i] = [2]string{"0x0:0", "0xff:7"}
	}
	var srvErr *ServerError
	if _, err := c.Batch(pairs, 0); !errors.As(err, &srvErr) || srvErr.Code != CodeBadRequest {
		t.Fatalf("oversize batch: got %v, want typed bad_request", err)
	}
	if !contains(srvErr.Msg, "split the batch") {
		t.Fatalf("refusal %q does not tell the client to split the batch", srvErr.Msg)
	}
	// The refusal is an answer, not a connection failure.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after oversize batch: %v", err)
	}
}

// TestBatchItemSizeV1Exact: the v1 batch budget counts each item's JSON
// footprint without rendering its paths, and must still match the bytes
// the v1 encoder produces — otherwise the frame-limit refusal would cut a
// batch at a different pair than the encoded reply actually overflows.
func TestBatchItemSizeV1Exact(t *testing.T) {
	srv, err := New(Config{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := srv.g
	paths, err := srv.cache.Paths(hhc.Node{X: 0x0, Y: 0}, hhc.Node{X: 0xff, Y: 7}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItemV2{
		{Paths: paths},
		{Paths: paths[:1]},
		{Paths: [][]hhc.Node{{{X: 0, Y: 0}, {X: 1 << 63, Y: 255}, {X: 0x10, Y: 99}, {X: 0xf, Y: 100}}}},
		{Err: `hhc: node "bogus": want x:y`},
		{Err: "pathsvc: node 0x100:0 out of range (need x < 2^8) & more"},
	}
	echo := [][2]string{{"0x0:0", "0xff:7"}, {"0x00:0", "255:7"}, {"a\"b", "\u2028<é>"}, {"bogus", "0xff:7"}, {"\x01", ""}}
	p := &pendingReq{proto: ProtocolVersion, echo: echo}
	for i := range items {
		item := BatchItem{U: echo[i][0], V: echo[i][1], Err: items[i].Err}
		for _, path := range items[i].Paths {
			text := make([]string, len(path))
			for j, n := range path {
				text[j] = g.FormatNode(n)
			}
			item.Paths = append(item.Paths, text)
		}
		enc, err := json.Marshal(item)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := srv.batchItemSize(p, i, &items[i]), len(enc)+1; got != want {
			t.Errorf("item %d: sized %d bytes, encodes to %d (+1 comma): %s", i, got, want, enc)
		}
	}
}

// TestOversizePathsAnsweredInternal: when an already-constructed response
// outgrows the frame limit at write time, the server substitutes a small
// CodeInternal answer instead of leaving the client waiting on silence.
func TestOversizePathsAnsweredInternal(t *testing.T) {
	_, addr := startServer(t, Config{M: 3, MaxFrame: 200})
	c := dial(t, addr)

	var srvErr *ServerError
	if _, err := c.Paths("0x0:0", "0xff:7", 0, 0); !errors.As(err, &srvErr) || srvErr.Code != CodeInternal {
		t.Fatalf("oversize paths: got %v, want typed internal", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after oversize paths: %v", err)
	}
}

// TestShutdownBeforeServe: a Shutdown that wins the race with Serve's
// startup must still end up closing the listener — the regression read
// s.ln before Serve published it and left Accept blocked forever.
func TestShutdownBeforeServe(t *testing.T) {
	srv, err := New(Config{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	waitFor(t, "close initiated", srv.closing)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not observe the pre-Serve shutdown")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	checkLedger(t, srv)
}

// TestTrackAfterClosePoked: a connection accepted just before beginClose
// but tracked just after it missed the shutdown poke loop; track must
// apply the read deadline itself so the drain cannot wait on an idle
// reader forever.
func TestTrackAfterClosePoked(t *testing.T) {
	srv, err := New(Config{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv.beginClose()
	sc, cc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	srv.track(sc)

	readErr := make(chan error, 1)
	go func() {
		_, err := sc.Read(make([]byte, 1))
		readErr <- err
	}()
	select {
	case err := <-readErr:
		if err == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read returned %v, want deadline exceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late-tracked connection was not poked; reader still blocked")
	}
}

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// syncBuilder is a minimal concurrent-safe strings.Builder stand-in.
type syncBuilder struct {
	mu sync.Mutex
	b  []byte
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b = append(s.b, p...)
	return len(p), nil
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.b)
}

func contains(haystack, needle string) bool {
	return len(needle) == 0 || (len(haystack) >= len(needle) && indexOf(haystack, needle) >= 0)
}

func indexOf(haystack, needle string) int {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return i
		}
	}
	return -1
}

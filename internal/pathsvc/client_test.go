package pathsvc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/hhc"
)

// fakePeer runs fn as the far side of a net.Pipe connection, standing in
// for servers with behaviors a healthy Server never exhibits (stalls,
// garbage frames, pre-negotiation responses).
func fakePeer(t *testing.T, fn func(ss net.Conn)) net.Conn {
	t.Helper()
	cs, ss := net.Pipe()
	go fn(ss)
	t.Cleanup(func() {
		_ = cs.Close()
		_ = ss.Close()
	})
	return cs
}

// echoV1 answers every decodable v1 frame with an OK response, stalling on
// ops present in the stall set until their channel closes.
func echoV1(stall map[string]chan struct{}) func(ss net.Conn) {
	return func(ss net.Conn) {
		br := bufio.NewReader(ss)
		for {
			payload, err := ReadFrame(br, 0)
			if err != nil {
				return
			}
			req, derr := DecodeRequest(payload)
			if derr != nil {
				return
			}
			if ch, ok := stall[req.Op]; ok {
				<-ch
			}
			if WriteFrame(ss, &Response{Ver: ProtocolVersion, ID: req.ID, Op: req.Op}, 0) != nil {
				return
			}
		}
	}
}

// TestClientTimeoutTyped: a stalled response surfaces as ErrClientTimeout
// within the request budget, the connection is NOT poisoned, and the late
// response is dropped by id instead of desyncing the stream.
func TestClientTimeoutTyped(t *testing.T) {
	release := make(chan struct{})
	conn := fakePeer(t, echoV1(map[string]chan struct{}{OpPaths: release}))
	c, err := NewClientWith(conn, DialOptions{Proto: ProtocolVersion, TimeoutSlack: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Paths("0x1:0", "0x2:1", 0, 20*time.Millisecond)
	if !errors.Is(err, ErrClientTimeout) {
		t.Fatalf("got %v, want ErrClientTimeout", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", waited)
	}
	if errors.Is(err, ErrClientBroken) {
		t.Fatal("a per-request timeout must not poison the client")
	}
	// Let the stalled response flow: it must be dropped, and the client
	// must keep working on the same connection.
	close(release)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after dropped late response: %v", err)
	}
}

// TestClientPoisonedByGarbageFrame: an unparseable response is a protocol
// error; the client poisons itself and later calls fail fast.
func TestClientPoisonedByGarbageFrame(t *testing.T) {
	conn := fakePeer(t, func(ss net.Conn) {
		br := bufio.NewReader(ss)
		if _, err := ReadFrame(br, 0); err != nil {
			return
		}
		_, _ = ss.Write([]byte{0, 0, 0, 3, 'x', 'y', 'z'})
	})
	c, err := NewClientWith(conn, DialOptions{Proto: ProtocolVersion})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info(); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("first call after garbage: %v, want ErrClientBroken", err)
	}
	// Fail-fast: no wire activity, immediate sentinel.
	start := time.Now()
	if _, err := c.Info(); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("second call: %v, want ErrClientBroken", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("poisoned call did not fail fast")
	}
}

// TestClientPoisonOnUnissuedID: a response whose id was never issued means
// the stream is desynced (or the peer is confused); poison.
func TestClientPoisonOnUnissuedID(t *testing.T) {
	conn := fakePeer(t, func(ss net.Conn) {
		br := bufio.NewReader(ss)
		payload, err := ReadFrame(br, 0)
		if err != nil {
			return
		}
		req, _ := DecodeRequest(payload)
		_ = WriteFrame(ss, &Response{Ver: ProtocolVersion, ID: req.ID + 41, Op: req.Op}, 0)
	})
	c, err := NewClientWith(conn, DialOptions{Proto: ProtocolVersion})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info(); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("got %v, want ErrClientBroken", err)
	}
}

// TestForcedV2AgainstV1OnlyServer: an old server JSON-rejects a binary
// frame with id 0; the forced-v2 client must poison with a descriptive
// error instead of hanging or misparsing.
func TestForcedV2AgainstV1OnlyServer(t *testing.T) {
	conn := fakePeer(t, func(ss net.Conn) {
		br := bufio.NewReader(ss)
		for {
			payload, err := ReadFrame(br, 0)
			if err != nil {
				return
			}
			if _, derr := DecodeRequest(payload); derr != nil {
				// Old servers answer undecodable payloads exactly like this.
				if WriteFrame(ss, &Response{Ver: ProtocolVersion, ID: 0,
					Code: CodeBadRequest, Err: derr.Error()}, 0) != nil {
					return
				}
			}
		}
	})
	c, err := NewClientWith(conn, DialOptions{Proto: ProtocolV2, TimeoutSlack: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var resp ResponseV2
	err = c.DoV2(&RequestV2{Op: OpCodePing, TimeoutNS: int64(100 * time.Millisecond)}, &resp)
	if !errors.Is(err, ErrClientBroken) {
		t.Fatalf("got %v, want ErrClientBroken", err)
	}
}

// TestSubMillisecondTimeoutRoundsUp pins the v1 wire-granularity fix: a
// set-but-small timeout must round up to 1ms, never truncate to "server
// default".
func TestSubMillisecondTimeoutRoundsUp(t *testing.T) {
	got := make(chan int64, 4)
	conn := fakePeer(t, func(ss net.Conn) {
		br := bufio.NewReader(ss)
		for {
			payload, err := ReadFrame(br, 0)
			if err != nil {
				return
			}
			req, _ := DecodeRequest(payload)
			got <- req.TimeoutMS
			if WriteFrame(ss, &Response{Ver: ProtocolVersion, ID: req.ID, Op: req.Op}, 0) != nil {
				return
			}
		}
	})
	c, err := NewClientWith(conn, DialOptions{Proto: ProtocolVersion})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Paths("0x1:0", "0x2:1", 0, 100*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if ms := <-got; ms != 1 {
		t.Fatalf("100µs encoded as timeout_ms=%d, want 1", ms)
	}
	if _, err := c.Route("0x1:0", "0x2:1", nil, 2500*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if ms := <-got; ms != 3 {
		t.Fatalf("2.5ms encoded as timeout_ms=%d, want 3 (round up)", ms)
	}
	if _, err := c.Batch([][2]string{{"0x1:0", "0x2:1"}}, 0); err != nil {
		t.Fatal(err)
	}
	if ms := <-got; ms != 0 {
		t.Fatalf("no timeout encoded as timeout_ms=%d, want 0", ms)
	}
}

func TestWireTimeoutMS(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want int64
	}{
		{0, 0}, {-time.Second, 0}, {time.Nanosecond, 1}, {100 * time.Microsecond, 1},
		{time.Millisecond, 1}, {time.Millisecond + 1, 2}, {1500 * time.Microsecond, 2},
		{time.Second, 1000},
	}
	for _, tc := range cases {
		if got := wireTimeoutMS(tc.in); got != tc.want {
			t.Errorf("wireTimeoutMS(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestClientNegotiation: auto mode upgrades to v2 against a current
// server, stays v1 against a server that omits ver_max, and pinning works.
func TestClientNegotiation(t *testing.T) {
	_, addr := startServer(t, Config{M: 3})

	auto, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	if auto.Proto() != ProtocolV2 {
		t.Fatalf("auto-negotiated proto %d, want %d", auto.Proto(), ProtocolV2)
	}
	var resp ResponseV2
	if err := auto.PathsV2(hhc.Node{X: 1}, hhc.Node{X: 0xfe, Y: 6}, 0, 0, &resp); err != nil {
		t.Fatalf("v2 paths after negotiation: %v", err)
	}

	pinned, err := DialWith(addr, DialOptions{Proto: ProtocolVersion})
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	if pinned.Proto() != ProtocolVersion {
		t.Fatalf("pinned proto %d, want 1", pinned.Proto())
	}
	if err := pinned.DoV2(&RequestV2{Op: OpCodePing}, &resp); err == nil {
		t.Fatal("DoV2 on a v1 connection must refuse")
	}

	// An old server: speaks v1, omits ver_max from Info.
	oldConn := fakePeer(t, func(ss net.Conn) {
		br := bufio.NewReader(ss)
		for {
			payload, err := ReadFrame(br, 0)
			if err != nil {
				return
			}
			req, _ := DecodeRequest(payload)
			if WriteFrame(ss, &Response{Ver: ProtocolVersion, ID: req.ID, Op: req.Op, M: 3}, 0) != nil {
				return
			}
		}
	})
	old, err := NewClientWith(oldConn, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if old.Proto() != ProtocolVersion {
		t.Fatalf("proto against old server = %d, want 1", old.Proto())
	}
}

// TestWireCompatMatrix runs the full op set through every protocol
// pairing on one server: v1 client, v2 client, and both encodings
// interleaved on a single negotiated connection.
func TestWireCompatMatrix(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3})
	g, _ := hhc.New(3)
	u, v := hhc.Node{X: 0x0, Y: 0}, hhc.Node{X: 0xff, Y: 7}
	us, vs := g.FormatNode(u), g.FormatNode(v)

	checkV1 := func(t *testing.T, c *Client) {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping: %v", err)
		}
		info, err := c.Info()
		if err != nil || info.M != 3 {
			t.Fatalf("info: %+v, %v", info, err)
		}
		if info.VerMax != MaxProtocolVersion {
			t.Fatalf("info.VerMax = %d, want %d", info.VerMax, MaxProtocolVersion)
		}
		resp, err := c.Paths(us, vs, 0, 0)
		if err != nil || len(resp.Paths) != 4 {
			t.Fatalf("paths: %v (%d paths)", err, len(resp.Paths))
		}
		verifyContainer(t, g, us, vs, resp.Paths)
	}
	checkV2 := func(t *testing.T, c *Client) {
		var resp ResponseV2
		if err := c.DoV2(&RequestV2{Op: OpCodePing}, &resp); err != nil {
			t.Fatalf("v2 ping: %v", err)
		}
		if err := c.DoV2(&RequestV2{Op: OpCodeInfo}, &resp); err != nil || resp.M != 3 {
			t.Fatalf("v2 info: m=%d, %v", resp.M, err)
		}
		if err := c.PathsV2(u, v, 0, 0, &resp); err != nil {
			t.Fatalf("v2 paths: %v", err)
		}
		if len(resp.Paths) != 4 || resp.Width != 4 || resp.Full != 4 || resp.Degraded {
			t.Fatalf("v2 paths width=%d full=%d degraded=%v len=%d",
				resp.Width, resp.Full, resp.Degraded, len(resp.Paths))
		}
		for i, p := range resp.Paths {
			if err := g.VerifyPath(u, v, p); err != nil {
				t.Fatalf("v2 path %d invalid: %v", i, err)
			}
		}
		// Truncation without degradation.
		if err := c.PathsV2(u, v, 2, 0, &resp); err != nil || len(resp.Paths) != 2 || resp.Degraded {
			t.Fatalf("v2 maxpaths=2: %d paths degraded=%v, %v", len(resp.Paths), resp.Degraded, err)
		}
		// Route avoiding a fault.
		fault := resp.Paths[0][1]
		if err := c.DoV2(&RequestV2{Op: OpCodeRoute, U: u, V: v,
			Faults: []hhc.Node{fault}}, &resp); err != nil {
			t.Fatalf("v2 route: %v", err)
		}
		if len(resp.Paths) != 1 {
			t.Fatalf("v2 route returned %d paths, want 1", len(resp.Paths))
		}
		for _, n := range resp.Paths[0] {
			if n == fault {
				t.Fatal("v2 route crossed the declared fault")
			}
		}
		// Batch: one good pair, one out-of-range pair.
		if err := c.DoV2(&RequestV2{Op: OpCodeBatch, Pairs: []NodePair{
			{U: u, V: v},
			{U: hhc.Node{X: 1 << 40, Y: 0}, V: v},
		}}, &resp); err != nil {
			t.Fatalf("v2 batch: %v", err)
		}
		if len(resp.Results) != 2 {
			t.Fatalf("v2 batch returned %d results, want 2", len(resp.Results))
		}
		if resp.Results[0].Err != "" || len(resp.Results[0].Paths) != 4 {
			t.Fatalf("v2 batch good pair: err=%q paths=%d", resp.Results[0].Err, len(resp.Results[0].Paths))
		}
		if resp.Results[1].Err == "" {
			t.Fatal("v2 batch out-of-range pair reported no error")
		}
		// RID echo.
		if err := c.DoV2(&RequestV2{Op: OpCodePing, RID: "rid-42"}, &resp); err != nil || resp.RID != "rid-42" {
			t.Fatalf("v2 rid echo: %q, %v", resp.RID, err)
		}
		// Typed bad request for an out-of-range endpoint.
		err := c.PathsV2(hhc.Node{X: 1 << 40, Y: 0}, v, 0, 0, &resp)
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeBadRequest {
			t.Fatalf("v2 out-of-range endpoint: %v, want bad_request ServerError", err)
		}
	}

	t.Run("v1-client", func(t *testing.T) {
		c := dial(t, addr)
		checkV1(t, c)
	})
	t.Run("v2-client", func(t *testing.T) {
		c, err := DialWith(addr, DialOptions{Proto: ProtocolV2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		checkV2(t, c)
	})
	t.Run("mixed-one-connection", func(t *testing.T) {
		c, err := DialWith(addr, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Both encodings interleave on a single connection: the server
		// answers each frame in the version it arrived in.
		checkV1(t, c)
		checkV2(t, c)
		checkV1(t, c)
	})
	_ = srv
}

// TestMixedProtocolCoalesce: a miss and three duplicates of it, from v1 and
// v2 clients, arrive while both workers are held. Each duplicate is
// queued and admitted on its own, and each gets a full answer in its own
// encoding, yet the cache's singleflight (or memo) builds the container once.
func TestMixedProtocolCoalesce(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 2, QueueDepth: 8})
	release := make(chan struct{})
	srv.stallForTest = func() { <-release }

	g, _ := hhc.New(3)
	u, v := hhc.Node{X: 0x5, Y: 1}, hhc.Node{X: 0xa, Y: 6}
	us, vs := g.FormatNode(u), g.FormatNode(v)
	type answer struct {
		proto     int
		nodes     [][]hhc.Node // v2 answer
		text      [][]string   // v1 answer
		width     int
		coalesced bool
		err       error
	}
	protos := []int{ProtocolVersion, ProtocolV2, ProtocolVersion, ProtocolV2}
	answers := make(chan answer, len(protos))
	for _, proto := range protos {
		c, err := DialWith(addr, DialOptions{Proto: proto})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		go func() {
			a := answer{proto: proto}
			if proto == ProtocolV2 {
				var resp ResponseV2
				a.err = c.PathsV2(u, v, 0, time.Minute, &resp)
				a.nodes, a.width, a.coalesced = resp.Paths, resp.Width, resp.Coalesced
			} else if resp, err := c.Paths(us, vs, 0, time.Minute); err != nil {
				a.err = err
			} else {
				a.text, a.width, a.coalesced = resp.Paths, resp.Width, resp.Coalesced
			}
			answers <- a
		}()
	}
	waitFor(t, "every duplicate admitted", func() bool {
		return srv.Counters().Admitted == int64(len(protos))
	})
	close(release)
	for range protos {
		a := <-answers
		if a.err != nil {
			t.Fatalf("v%d request: %v", a.proto, a.err)
		}
		if n := len(a.nodes) + len(a.text); n != 4 || a.width != 4 {
			t.Fatalf("v%d answer has %d paths, width %d, want 4 and 4", a.proto, n, a.width)
		}
		if a.coalesced {
			t.Fatalf("v%d answer flagged coalesced", a.proto)
		}
		verifyContainer(t, g, us, vs, a.text)
		for i, path := range a.nodes {
			if err := g.VerifyPath(u, v, path); err != nil {
				t.Fatalf("v2 path %d: %v", i, err)
			}
		}
	}
	if admitted := srv.Counters().Admitted; admitted != int64(len(protos)) {
		t.Fatalf("admitted = %d, want %d: each duplicate takes its own queue slot", admitted, len(protos))
	}
	cs := srv.CacheSnapshot()
	if cs.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1 shared construction (%s)", cs.Misses, cs)
	}
	if lookups := cs.Lookups(); lookups != int64(len(protos)) {
		t.Fatalf("cache counted %d lookups, want one per worker execution (%s)", lookups, cs)
	}
}

// TestPipelinedHammer drives one shared connection from many goroutines
// with both encodings in flight at once (run under -race in CI).
func TestPipelinedHammer(t *testing.T) {
	_, addr := startServer(t, Config{M: 3, QueueDepth: 512})
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, _ := hhc.New(3)

	const goroutines = 16
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var resp ResponseV2
			for j := 0; j < perG; j++ {
				u := hhc.Node{X: uint64((seed*31 + j) % 256), Y: uint8(seed % 8)}
				v := hhc.Node{X: uint64((seed*17 + j*13 + 1) % 256), Y: uint8((seed + 5) % 8)}
				if u == v {
					v.X = (v.X + 1) % 256
				}
				switch j % 3 {
				case 0:
					if err := c.PathsV2(u, v, 0, 0, &resp); err != nil {
						errs <- fmt.Errorf("goroutine %d v2 paths: %w", seed, err)
						return
					}
					if len(resp.Paths) != 4 {
						errs <- fmt.Errorf("goroutine %d: %d paths, want 4", seed, len(resp.Paths))
						return
					}
				case 1:
					r, err := c.Paths(g.FormatNode(u), g.FormatNode(v), 0, 0)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d v1 paths: %w", seed, err)
						return
					}
					if len(r.Paths) != 4 {
						errs <- fmt.Errorf("goroutine %d: v1 %d paths, want 4", seed, len(r.Paths))
						return
					}
				default:
					if err := c.Ping(); err != nil {
						errs <- fmt.Errorf("goroutine %d ping: %w", seed, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPipelinedStallingServer: every in-flight request against a fully
// stalled worker pool times out typed — none block forever, the client is
// not poisoned, and it recovers once the server unsticks.
func TestPipelinedStallingServer(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 2, QueueDepth: 64})
	release := make(chan struct{})
	var once sync.Once
	srv.stallForTest = func() {
		once.Do(func() {})
		<-release
	}
	c, err := DialWith(addr, DialOptions{TimeoutSlack: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const inflight = 8
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp ResponseV2
			u := hhc.Node{X: uint64(i), Y: 0}
			v := hhc.Node{X: uint64(0xf0 ^ i), Y: 5}
			errs <- c.PathsV2(u, v, 0, 30*time.Millisecond, &resp)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		// Either the client-side budget or the server's own deadline may
		// fire first; both are typed, neither may hang or poison.
		if !errors.Is(err, ErrClientTimeout) && !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("stalled request: %v, want ErrClientTimeout or ErrDeadlineExceeded", err)
		}
	}
	close(release)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after stall released: %v", err)
	}
}

// TestReconnRedialsAfterPoison: the reconnecting helper hands out a fresh
// client after the previous one broke.
func TestReconnRedialsAfterPoison(t *testing.T) {
	_, addr := startServer(t, Config{M: 3})
	r := NewReconn(addr, DialOptions{})
	defer r.Close()

	c1, err := r.Client()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	_ = c1.Close()
	if err := c1.Ping(); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("ping on closed client: %v, want ErrClientBroken", err)
	}
	r.Invalidate(c1)
	c2, err := r.Client()
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Fatal("Reconn handed back the poisoned client")
	}
	if err := c2.Ping(); err != nil {
		t.Fatalf("ping on redialed client: %v", err)
	}
}

// TestDeadlineExceededTypedV2: the v2 nanosecond timeout is honored
// server-side and surfaces as the same typed sentinel as v1.
func TestDeadlineExceededTypedV2(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 1, QueueDepth: 8})
	block := make(chan struct{})
	var once sync.Once
	srv.stallForTest = func() { once.Do(func() { <-block }) }

	occupier, err := DialWith(addr, DialOptions{Proto: ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	defer occupier.Close()
	occDone := make(chan struct{})
	go func() {
		defer close(occDone)
		var resp ResponseV2
		_ = occupier.PathsV2(hhc.Node{X: 1}, hhc.Node{X: 2, Y: 3}, 0, time.Minute, &resp)
	}()
	waitFor(t, "worker occupied", func() bool { return srv.activeWorkers.Load() == 1 })

	go func() {
		time.Sleep(50 * time.Millisecond)
		close(block)
	}()
	c, err := DialWith(addr, DialOptions{Proto: ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp ResponseV2
	err = c.PathsV2(hhc.Node{X: 3}, hhc.Node{X: 4, Y: 4}, 0, 10*time.Millisecond, &resp)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	<-occDone
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/hhc"
	"repro/internal/pathsvc"
)

// testCluster is one live N-peer deployment on loopback listeners.
type testCluster struct {
	addrs    []string
	servers  []*pathsvc.Server
	clusters []*Cluster
}

// startTestCluster binds n listeners first (the membership list needs the
// final addresses), then starts one routed pathsvc server per peer.
func startTestCluster(t *testing.T, n, m int) *testCluster {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	tc := &testCluster{addrs: addrs}
	for i := 0; i < n; i++ {
		cl, err := New(Config{
			Peers: addrs,
			Self:  i,
			Dial:  pathsvc.DialOptions{IOTimeout: 2 * time.Second},
			// Fast breaker recovery so owner-down tests are not flaky on
			// their timing.
			Cooldown: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := pathsvc.New(pathsvc.Config{M: m, Router: cl})
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		ln := lns[i]
		go func() { serveErr <- srv.Serve(ln) }()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
			if err := <-serveErr; err != nil {
				t.Errorf("Serve: %v", err)
			}
			checkLedger(t, srv)
			cl.Close()
		})
		tc.servers = append(tc.servers, srv)
		tc.clusters = append(tc.clusters, cl)
	}
	return tc
}

// checkLedger asserts the request ledger of a drained server balances:
// every decoded request was answered into exactly one terminal bucket,
// whether locally, through its owner, or by a fallback.
func checkLedger(t *testing.T, srv *pathsvc.Server) {
	t.Helper()
	snap := srv.Counters()
	if terminal := snap.Terminal(); snap.Requests != terminal {
		t.Errorf("ledger imbalance: requests=%d terminal=%d (%s)", snap.Requests, terminal, snap)
	}
}

// stop shuts one peer down mid-test (owner-down scenarios).
func (tc *testCluster) stop(t *testing.T, i int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tc.servers[i].Shutdown(ctx); err != nil {
		t.Fatalf("shutdown peer %d: %v", i, err)
	}
	checkLedger(t, tc.servers[i])
}

// pairOwnedBy finds a query pair the ring assigns to peer `owner`.
func (tc *testCluster) pairOwnedBy(t *testing.T, owner int) (u, v hhc.Node) {
	t.Helper()
	for _, k := range sampleKeys(4096) {
		if tc.clusters[0].Ring().Owner(k[0], k[1]) == owner {
			return k[0], k[1]
		}
	}
	t.Fatal("no sampled pair owned by peer", owner)
	return
}

// TestClusterMatchesSingleNode drives every peer of a 3-peer cluster with
// the same query set a plain single-node server answers, and requires
// bit-identical containers — forwarding must be invisible to results.
// It also requires the load to have actually exercised forwarding on at
// least two peers.
func TestClusterMatchesSingleNode(t *testing.T) {
	const m = 3
	tc := startTestCluster(t, 3, m)
	g, err := hhc.New(m)
	if err != nil {
		t.Fatal(err)
	}

	solo, err := pathsvc.New(pathsvc.Config{M: m})
	if err != nil {
		t.Fatal(err)
	}
	soloLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	soloErr := make(chan error, 1)
	go func() { soloErr <- solo.Serve(soloLn) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = solo.Shutdown(ctx)
		if err := <-soloErr; err != nil {
			t.Errorf("solo Serve: %v", err)
		}
		checkLedger(t, solo)
	})
	soloClient, err := pathsvc.Dial(soloLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer soloClient.Close()

	clients := make([]*pathsvc.Client, len(tc.addrs))
	for i, addr := range tc.addrs {
		if clients[i], err = pathsvc.Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}

	for i, k := range sampleKeys(60) {
		us, vs := g.FormatNode(k[0]), g.FormatNode(k[1])
		want, err := soloClient.Do(pathsvc.Request{Op: pathsvc.OpPaths, U: us, V: vs})
		if err != nil {
			t.Fatalf("solo %s-%s: %v", us, vs, err)
		}
		// Every peer must give the same answer, owned or forwarded.
		cl := clients[i%len(clients)]
		got, err := cl.Do(pathsvc.Request{Op: pathsvc.OpPaths, U: us, V: vs})
		if err != nil {
			t.Fatalf("cluster %s-%s: %v", us, vs, err)
		}
		if got.Code != pathsvc.CodeOK {
			t.Fatalf("cluster %s-%s: code %q err %q", us, vs, got.Code, got.Err)
		}
		if !reflect.DeepEqual(got.Paths, want.Paths) {
			t.Fatalf("cluster answer for %s-%s differs from single-node:\n got %v\nwant %v",
				us, vs, got.Paths, want.Paths)
		}
	}

	forwarding := 0
	for i, srv := range tc.servers {
		snap := srv.Counters()
		if snap.Forwarded > 0 {
			forwarding++
		}
		if snap.ForwardErrors > 0 || snap.DegradedLoc > 0 {
			t.Errorf("peer %d: unexpected forward errors in a healthy cluster: %s", i, snap)
		}
	}
	if forwarding < 2 {
		t.Errorf("only %d peers forwarded; the sample should exercise at least 2", forwarding)
	}
}

// TestHopGuardNeverReforwards sends a frame that already carries the
// hop-guard bit to a peer that does NOT own it. The peer must answer
// locally: forwarded-in counted, no outgoing forward, correct container.
func TestHopGuardNeverReforwards(t *testing.T) {
	const m = 3
	tc := startTestCluster(t, 2, m)
	u, v := tc.pairOwnedBy(t, 1) // peer 0 does not own it

	c, err := pathsvc.DialWith(tc.addrs[0], pathsvc.DialOptions{Proto: pathsvc.ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp pathsvc.ResponseV2
	if err := c.DoV2(&pathsvc.RequestV2{Op: pathsvc.OpCodePaths, U: u, V: v, Forwarded: true}, &resp); err != nil {
		t.Fatalf("forwarded-marked request: %v", err)
	}
	if len(resp.Paths) == 0 {
		t.Fatal("forwarded-marked request returned no paths")
	}
	snap := tc.servers[0].Counters()
	if snap.ForwardedIn != 1 {
		t.Errorf("peer 0 ForwardedIn = %d, want 1", snap.ForwardedIn)
	}
	if snap.Forwarded != 0 {
		t.Errorf("peer 0 re-forwarded a hop-guarded frame (Forwarded = %d)", snap.Forwarded)
	}
	if owner := tc.servers[1].Counters(); owner.Requests != 0 {
		t.Errorf("owner peer saw %d requests; the hop-guarded frame must not reach it", owner.Requests)
	}
}

// TestOwnerDownFallback kills the owning peer and requires the survivor to
// keep answering its non-owned queries locally — correct paths, degraded
// accounting, zero client-visible errors.
func TestOwnerDownFallback(t *testing.T) {
	const m = 3
	tc := startTestCluster(t, 2, m)
	u, v := tc.pairOwnedBy(t, 1)
	g, err := hhc.New(m)
	if err != nil {
		t.Fatal(err)
	}
	us, vs := g.FormatNode(u), g.FormatNode(v)

	c, err := pathsvc.Dial(tc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Healthy first: the query forwards.
	resp, err := c.Do(pathsvc.Request{Op: pathsvc.OpPaths, U: us, V: vs})
	if err != nil || resp.Code != pathsvc.CodeOK {
		t.Fatalf("healthy forward: %v %+v", err, resp)
	}
	if snap := tc.servers[0].Counters(); snap.Forwarded != 1 {
		t.Fatalf("expected 1 forward before the kill, got %s", snap)
	}

	tc.stop(t, 1)

	// Every post-kill query must still be answered, now locally.
	for i := 0; i < 10; i++ {
		resp, err := c.Do(pathsvc.Request{Op: pathsvc.OpPaths, U: us, V: vs})
		if err != nil {
			t.Fatalf("query %d after owner death: %v", i, err)
		}
		if resp.Code != pathsvc.CodeOK {
			t.Fatalf("query %d after owner death: code %q err %q", i, resp.Code, resp.Err)
		}
		if len(resp.Paths) != m+1 {
			t.Fatalf("query %d: %d paths, want full width %d", i, len(resp.Paths), m+1)
		}
	}
	snap := tc.servers[0].Counters()
	if snap.DegradedLoc < 10 {
		t.Errorf("DegradedLocal = %d, want >= 10 local fallbacks", snap.DegradedLoc)
	}
	if snap.ForwardErrors == 0 {
		t.Error("ForwardErrors = 0, want > 0 after owner death")
	}
	st := tc.clusters[0].Status()
	if len(st) != 1 || st[0].Errors == 0 {
		t.Errorf("cluster status did not record peer errors: %+v", st)
	}
}

// TestForwardSelfOwned pins the Forwarder contract edge: asking the
// cluster to forward a pair it owns itself is an error, not a loop.
func TestForwardSelfOwned(t *testing.T) {
	tc := startTestCluster(t, 2, 3)
	u, v := tc.pairOwnedBy(t, 0)
	var resp pathsvc.ResponseV2
	_, err := tc.clusters[0].Forward(&pathsvc.RequestV2{Op: pathsvc.OpCodePaths, U: u, V: v}, &resp)
	if err == nil {
		t.Fatal("Forward of a self-owned pair succeeded; want an error")
	}
}

// TestMutualForwardHammer drives two peers that forward to each other
// under concurrent load — the liveness pin for the forwarding design
// (forwards must not consume construction workers, or the two pools
// could deadlock waiting on each other). Run with -race in CI.
func TestMutualForwardHammer(t *testing.T) {
	const m = 2
	tc := startTestCluster(t, 2, m)
	g, err := hhc.New(m)
	if err != nil {
		t.Fatal(err)
	}
	keys := sampleKeysM2(64)

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		c, err := pathsvc.DialWith(tc.addrs[w%2], pathsvc.DialOptions{Proto: pathsvc.ProtocolV2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(w int, c *pathsvc.Client) {
			defer wg.Done()
			var resp pathsvc.ResponseV2
			for i := 0; i < 100; i++ {
				k := keys[(w*100+i)%len(keys)]
				req := pathsvc.RequestV2{Op: pathsvc.OpCodePaths, U: k[0], V: k[1]}
				if err := c.DoV2(&req, &resp); err != nil {
					errc <- fmt.Errorf("worker %d query %d (%s-%s): %w",
						w, i, g.FormatNode(k[0]), g.FormatNode(k[1]), err)
					return
				}
				if len(resp.Paths) == 0 {
					errc <- fmt.Errorf("worker %d query %d: empty container", w, i)
					return
				}
			}
		}(w, c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for i, srv := range tc.servers {
		snap := srv.Counters()
		if snap.Forwarded == 0 {
			t.Errorf("peer %d never forwarded under the hammer: %s", i, snap)
		}
		if snap.ForwardedIn == 0 {
			t.Errorf("peer %d never received a forward under the hammer: %s", i, snap)
		}
	}
}

// sampleKeysM2 yields pairs inside the m=2 topology (X in [0,16), Y in [0,4)).
func sampleKeysM2(n int) [][2]hhc.Node {
	pairs := make([][2]hhc.Node, 0, n)
	for i := 0; len(pairs) < n; i++ {
		h := finalize(uint64(i)*0x9e3779b97f4a7c15 + 0x7654321)
		u := hhc.Node{X: h & 0xf, Y: uint8((h >> 8) & 3)}
		v := hhc.Node{X: (h >> 16) & 0xf, Y: uint8((h >> 24) & 3)}
		if u == v {
			continue
		}
		pairs = append(pairs, [2]hhc.Node{u, v})
	}
	return pairs
}

// TestForwardPeerDownError pins the breaker's typed error surface.
func TestForwardPeerDownError(t *testing.T) {
	peers := testPeers(2)
	c, err := New(Config{Peers: peers, Self: 0, FailThreshold: 1, Cooldown: time.Hour,
		Dial: pathsvc.DialOptions{IOTimeout: 200 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	u, v := hhc.Node{X: 1, Y: 0}, hhc.Node{X: 2, Y: 1}
	// Find a pair owned by the (unreachable) remote peer.
	for _, k := range sampleKeys(512) {
		if c.Ring().Owner(k[0], k[1]) == 1 {
			u, v = k[0], k[1]
			break
		}
	}
	var resp pathsvc.ResponseV2
	req := pathsvc.RequestV2{Op: pathsvc.OpCodePaths, U: u, V: v}
	if _, err := c.Forward(&req, &resp); err == nil {
		t.Fatal("forward to an unreachable peer succeeded")
	}
	// FailThreshold 1 trips the breaker on the first failure; the next
	// forward must short-circuit with ErrPeerDown instead of redialing.
	if _, err := c.Forward(&req, &resp); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("second forward = %v, want ErrPeerDown", err)
	}
	if !req.Forwarded {
		t.Error("Forward did not set the hop-guard bit on the outgoing request")
	}
}

package cluster

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pathsvc"
)

// startTracedCluster is startTestCluster plus a flight recorder and a
// metric registry per peer — the harness for the cross-peer tracing
// end-to-end pins (rid propagation, stitching, exemplars).
func startTracedCluster(t *testing.T, n, m int) (*testCluster, []*obs.Tracer) {
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
	tracers := make([]*obs.Tracer, n)
	for i := 0; i < n; i++ {
		cl, err := New(Config{
			Peers:    addrs,
			Self:     i,
			Dial:     pathsvc.DialOptions{IOTimeout: 2 * time.Second},
			Cooldown: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		tracers[i] = obs.NewTracer(64)
		srv, err := pathsvc.New(pathsvc.Config{
			M:        m,
			Router:   cl,
			Peer:     addrs[i],
			Reg:      obs.NewRegistry(),
			Requests: tracers[i],
		})
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
			cl.Close()
		})
		tc.servers = append(tc.servers, srv)
		tc.clusters = append(tc.clusters, cl)
	}
	return tc, tracers
}

// ridTraces returns every recorded tree carrying the rid, polling briefly:
// the owner finishes its trace before answering, but the requester's
// response can beat the recorder's Finish by a scheduler tick.
func ridTraces(t *testing.T, tr *obs.Tracer, rid string, want int) []*obs.RequestTrace {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var got []*obs.RequestTrace
		for _, x := range tr.Snapshot().Recent {
			if x.ID == rid {
				got = append(got, x)
			}
		}
		if len(got) >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// topSpanOf finds the first top-level span named name (nil if absent).
func topSpanOf(tr *obs.RequestTrace, name string) *obs.Span {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}

// TestForwardPropagatesRID drives a forwarded query with a client rid
// through a 3-peer cluster and requires the same rid on both sides of the
// hop: the requester's tree (no origin, forward span) and the owner's
// tree (origin = requester's address), and on no third peer.
func TestForwardPropagatesRID(t *testing.T) {
	const m, rid = 3, "rid-e2e-fwd"
	tc, tracers := startTracedCluster(t, 3, m)
	u, v := tc.pairOwnedBy(t, 1) // forward: peer 0 does not own it

	c, err := pathsvc.DialWith(tc.addrs[0], pathsvc.DialOptions{Proto: pathsvc.ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp pathsvc.ResponseV2
	if err := c.DoV2(&pathsvc.RequestV2{Op: pathsvc.OpCodePaths, RID: rid, U: u, V: v}, &resp); err != nil {
		t.Fatal(err)
	}
	if snap := tc.servers[0].Counters(); snap.Forwarded != 1 {
		t.Fatalf("expected exactly one forward, got %s", snap)
	}

	reqTrees := ridTraces(t, tracers[0], rid, 1)
	if len(reqTrees) != 1 {
		t.Fatalf("requester recorded %d trees for rid %q, want 1", len(reqTrees), rid)
	}
	root := reqTrees[0]
	if root.Origin != "" {
		t.Errorf("requester tree has origin %q, want none", root.Origin)
	}
	fwd := topSpanOf(root, "forward")
	if fwd == nil {
		t.Fatalf("requester tree has no forward span: %+v", root.Spans)
	}

	ownTrees := ridTraces(t, tracers[1], rid, 1)
	if len(ownTrees) != 1 {
		t.Fatalf("owner recorded %d trees for rid %q, want 1", len(ownTrees), rid)
	}
	if ownTrees[0].Origin != tc.addrs[0] {
		t.Errorf("owner tree origin = %q, want requester %q", ownTrees[0].Origin, tc.addrs[0])
	}
	if topSpanOf(ownTrees[0], "exec") == nil {
		t.Errorf("owner tree has no exec span: %+v", ownTrees[0].Spans)
	}
	if stray := ridTraces(t, tracers[2], rid, 0); len(stray) != 0 {
		t.Errorf("uninvolved peer recorded rid %q: %d trees", rid, len(stray))
	}

	// The owner relayed its queue/exec timing; the requester's forward
	// span must carry the remote_exec decomposition child.
	var names []string
	for _, ch := range fwd.Children {
		names = append(names, ch.Name)
	}
	found := false
	for _, n := range names {
		if n == "remote_exec" {
			found = true
		}
	}
	if !found {
		t.Errorf("forward span children = %v, want a remote_exec phase", names)
	}
}

// TestHopGuardDoesNotDuplicateRID sends an already hop-guarded frame to a
// non-owner: it must be answered locally, producing exactly one tree for
// the rid cluster-wide — a guarded hop may never re-forward and so may
// never mint a second tree for the same rid on another peer.
func TestHopGuardDoesNotDuplicateRID(t *testing.T) {
	const m, rid = 3, "rid-e2e-guard"
	tc, tracers := startTracedCluster(t, 2, m)
	u, v := tc.pairOwnedBy(t, 1)

	c, err := pathsvc.DialWith(tc.addrs[0], pathsvc.DialOptions{Proto: pathsvc.ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp pathsvc.ResponseV2
	req := pathsvc.RequestV2{Op: pathsvc.OpCodePaths, RID: rid, U: u, V: v,
		Forwarded: true, Origin: "synthetic-peer:1"}
	if err := c.DoV2(&req, &resp); err != nil {
		t.Fatal(err)
	}
	local := ridTraces(t, tracers[0], rid, 1)
	if len(local) != 1 {
		t.Fatalf("local peer recorded %d trees for rid %q, want 1", len(local), rid)
	}
	if local[0].Origin != "synthetic-peer:1" {
		t.Errorf("hop-guarded tree origin = %q, want the frame's origin", local[0].Origin)
	}
	if owner := ridTraces(t, tracers[1], rid, 0); len(owner) != 0 {
		t.Errorf("hop-guarded frame re-forwarded: owner recorded %d trees for rid %q", len(owner), rid)
	}
	if snap := tc.servers[0].Counters(); snap.Forwarded != 0 || snap.ForwardedIn != 1 {
		t.Errorf("counters after guarded frame: %s", snap)
	}
}

// TestStitchedClusterTrace joins the two halves of a live forwarded query
// with obs.StitchTraces and requires the stitched tree to equal the sum
// of the per-peer recordings: remote phases equal the owner's queue/exec
// spans and the remote child carries the owner's span tree.
func TestStitchedClusterTrace(t *testing.T) {
	const m, rid = 3, "rid-e2e-stitch"
	tc, tracers := startTracedCluster(t, 3, m)
	u, v := tc.pairOwnedBy(t, 2)

	c, err := pathsvc.DialWith(tc.addrs[0], pathsvc.DialOptions{Proto: pathsvc.ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp pathsvc.ResponseV2
	if err := c.DoV2(&pathsvc.RequestV2{Op: pathsvc.OpCodePaths, RID: rid, U: u, V: v}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(ridTraces(t, tracers[0], rid, 1)) != 1 || len(ridTraces(t, tracers[2], rid, 1)) != 1 {
		t.Fatal("both halves of the forwarded trace must be recorded")
	}

	byPeer := make(map[string][]*obs.RequestTrace, len(tracers))
	for i, tr := range tracers {
		byPeer[tc.addrs[i]] = tr.Snapshot().Recent
	}
	stitched := obs.StitchTraces(byPeer)
	var st *obs.StitchedTrace
	for _, s := range stitched {
		if s.RID == rid {
			st = s
		}
	}
	if st == nil {
		t.Fatalf("no stitched trace for rid %q (got %d stitched)", rid, len(stitched))
	}
	if st.RequesterPeer != tc.addrs[0] || st.OwnerPeer != tc.addrs[2] {
		t.Errorf("stitched peers = %s -> %s, want %s -> %s",
			st.RequesterPeer, st.OwnerPeer, tc.addrs[0], tc.addrs[2])
	}
	owner := ridTraces(t, tracers[2], rid, 1)[0]
	wantQueue, wantExec := int64(0), int64(0)
	if sp := topSpanOf(owner, "queue"); sp != nil {
		wantQueue = sp.Dur
	}
	if sp := topSpanOf(owner, "exec"); sp != nil {
		wantExec = sp.Dur
	}
	if st.RemoteQueueNS != wantQueue || st.RemoteExecNS != wantExec {
		t.Errorf("stitched remote phases queue=%d exec=%d, owner spans queue=%d exec=%d",
			st.RemoteQueueNS, st.RemoteExecNS, wantQueue, wantExec)
	}
	if st.ForwardNS <= 0 || st.ForwardNS < st.RemoteExecNS {
		t.Errorf("forward span %dns shorter than the remote exec %dns it contains",
			st.ForwardNS, st.RemoteExecNS)
	}
	fwd := topSpanOf(st.Root, "forward")
	if fwd == nil {
		t.Fatal("stitched root lost its forward span")
	}
	var remote *obs.Span
	for _, ch := range fwd.Children {
		if ch.Name == "remote" {
			remote = ch
		}
	}
	if remote == nil {
		t.Fatal("stitched forward span has no grafted remote child")
	}
	if len(remote.Children) != len(owner.Spans) {
		t.Errorf("remote child carries %d spans, owner recorded %d",
			len(remote.Children), len(owner.Spans))
	}
	// The requester relays the owner's timing to its client: queue_ns and
	// exec_ns describe the remote work, not a local zero. (The response
	// fields and the trace spans are sampled at slightly different points,
	// so this pins presence, not nanosecond equality.)
	if resp.QueueNS <= 0 || resp.ExecNS <= 0 {
		t.Errorf("forwarded response timing queue=%d exec=%d, want the owner's relayed values",
			resp.QueueNS, resp.ExecNS)
	}
}

// TestBatchLocalCounter pins the batch forwarding gap's visibility: a
// batch containing a non-owned pair is answered locally and counted in
// BatchLocal; an all-owned batch is not.
func TestBatchLocalCounter(t *testing.T) {
	const m = 3
	tc := startTestCluster(t, 2, m)
	ownedU, ownedV := tc.pairOwnedBy(t, 0)
	foreignU, foreignV := tc.pairOwnedBy(t, 1)

	c, err := pathsvc.DialWith(tc.addrs[0], pathsvc.DialOptions{Proto: pathsvc.ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var resp pathsvc.ResponseV2
	allOwned := pathsvc.RequestV2{Op: pathsvc.OpCodeBatch,
		Pairs: []pathsvc.NodePair{{U: ownedU, V: ownedV}}}
	if err := c.DoV2(&allOwned, &resp); err != nil {
		t.Fatal(err)
	}
	if snap := tc.servers[0].Counters(); snap.BatchLocal != 0 {
		t.Fatalf("all-owned batch counted as local gap: %s", snap)
	}

	mixed := pathsvc.RequestV2{Op: pathsvc.OpCodeBatch,
		Pairs: []pathsvc.NodePair{{U: ownedU, V: ownedV}, {U: foreignU, V: foreignV}}}
	if err := c.DoV2(&mixed, &resp); err != nil {
		t.Fatal(err)
	}
	snap := tc.servers[0].Counters()
	if snap.BatchLocal != 1 {
		t.Errorf("BatchLocal = %d after one mixed batch, want 1", snap.BatchLocal)
	}
	if snap.Forwarded != 0 {
		t.Errorf("batch pairs must not forward individually: %s", snap)
	}
}

// TestDebugClusterHandler serves /debug/cluster for a peer that just
// forwarded and checks the report: identity, full membership with ring
// shares summing to 1, forward counters, and a request exemplar carrying
// the forwarded rid.
func TestDebugClusterHandler(t *testing.T) {
	const m, rid = 3, "rid-e2e-debug"
	tc, _ := startTracedCluster(t, 3, m)
	u, v := tc.pairOwnedBy(t, 1)

	c, err := pathsvc.DialWith(tc.addrs[0], pathsvc.DialOptions{Proto: pathsvc.ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp pathsvc.ResponseV2
	if err := c.DoV2(&pathsvc.RequestV2{Op: pathsvc.OpCodePaths, RID: rid, U: u, V: v}, &resp); err != nil {
		t.Fatal(err)
	}
	// The server records the request-latency exemplar just after writing
	// the response, so the client can read it first: wait for the sample.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if hasExemplar(tc.servers[0].RequestExemplars(), rid) {
			break
		}
	}

	rec := httptest.NewRecorder()
	tc.clusters[0].DebugHandler(tc.servers[0]).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/cluster", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var snap DebugSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode /debug/cluster: %v\n%s", err, rec.Body.String())
	}
	if snap.Self != tc.addrs[0] {
		t.Errorf("self = %q, want %q", snap.Self, tc.addrs[0])
	}
	if len(snap.Peers) != 3 {
		t.Fatalf("report lists %d peers, want 3", len(snap.Peers))
	}
	sum := 0.0
	selfRows := 0
	for _, p := range snap.Peers {
		sum += p.RingShare
		if p.Self {
			selfRows++
			if p.Addr != tc.addrs[0] {
				t.Errorf("self row addr = %q, want %q", p.Addr, tc.addrs[0])
			}
		}
	}
	if selfRows != 1 {
		t.Errorf("report has %d self rows, want 1", selfRows)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("ring shares sum to %v, want 1", sum)
	}
	if snap.Counters.Forwarded != 1 || snap.Counters.Requests == 0 {
		t.Errorf("counters = %+v, want the forward accounted", snap.Counters)
	}
	if !hasExemplar(snap.RequestExemplars, rid) {
		t.Errorf("request exemplars %+v do not carry rid %q", snap.RequestExemplars, rid)
	}
}

func hasExemplar(exs []obs.Exemplar, rid string) bool {
	for _, ex := range exs {
		if ex.RID == rid {
			return true
		}
	}
	return false
}

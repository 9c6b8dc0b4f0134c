package pathsvc

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hhc"
)

// warmPair stores the container of (u, v) in srv's cache without a
// worker, so a test can warm it while the pool is stalled.
func warmPair(t *testing.T, srv *Server, u, v hhc.Node) {
	t.Helper()
	if _, err := srv.cache.Paths(u, v, core.Options{}); err != nil {
		t.Fatal(err)
	}
}

// pathsFrames encodes one v2 paths frame for (u, v) per id, back to back,
// so a single conn.Write delivers them as one pipelined burst.
func pathsFrames(u, v hhc.Node, ids ...uint64) []byte {
	var frames []byte
	for _, id := range ids {
		req := RequestV2{ID: id, Op: OpCodePaths, U: u, V: v}
		frame := AppendRequestV2(appendFramePrefix(nil), &req)
		patchFramePrefix(frame)
		frames = append(frames, frame...)
	}
	return frames
}

// readAnswer reads and decodes one v2 response frame within d.
func readAnswer(t *testing.T, conn net.Conn, d time.Duration) ResponseV2 {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(d))
	payload, err := ReadFrame(conn, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("read answer: %v", err)
	}
	var resp ResponseV2
	if err := DecodeResponseV2(payload, &resp); err != nil {
		t.Fatalf("decode answer: %v", err)
	}
	return resp
}

// sendMiss sends a paths query for an uncached pair from its own v2
// client, in the background; its answer is not awaited.
func sendMiss(t *testing.T, addr string, u, v hhc.Node) {
	t.Helper()
	c, err := DialWith(addr, DialOptions{Proto: ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	go func() {
		var resp ResponseV2
		_ = c.PathsV2(u, v, 0, time.Minute, &resp)
	}()
}

// TestInlineHitWhileWorkersStalled: a cached pair is answered on the
// connection's reader, so it is served even while every worker is held —
// with a zero queue wait, and counted admitted and completed.
func TestInlineHitWhileWorkersStalled(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	srv.stallForTest = func() { <-release }
	defer close(release)

	u, v := hhc.Node{X: 0x2a, Y: 3}, hhc.Node{X: 0x91, Y: 6}
	warmPair(t, srv, u, v)
	sendMiss(t, addr, hhc.Node{X: 0x1, Y: 0}, hhc.Node{X: 0x2, Y: 3})
	waitFor(t, "worker occupied", func() bool { return srv.activeWorkers.Load() == 1 })

	c, err := DialWith(addr, DialOptions{Proto: ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp ResponseV2
	if err := c.PathsV2(u, v, 0, 2*time.Second, &resp); err != nil {
		t.Fatalf("warm pair behind a stalled worker: %v", err)
	}
	g, _ := hhc.New(3)
	if err := core.VerifyContainer(g, u, v, resp.Paths); err != nil || len(resp.Paths) != 4 {
		t.Fatalf("inline answer: %d paths, verify %v", len(resp.Paths), err)
	}
	if resp.QueueNS != 0 {
		t.Errorf("inline hit reports queue_ns=%d, want 0", resp.QueueNS)
	}
	if snap := srv.Counters(); snap.Admitted != 2 || snap.Completed != 1 {
		t.Errorf("ledger %s, want admitted=2 completed=1", snap)
	}
}

// countingListener counts the Write calls made on the connections it
// accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestPipelinedHitsShareWrites: a burst of hit frames that arrives in one
// client write is answered with fewer server writes than frames, because
// the reader holds its answers while more whole frames are buffered.
func TestPipelinedHitsShareWrites(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	srv, addr := startServerOn(t, Config{M: 3}, countingListener{Listener: ln, writes: &writes})
	u, v := hhc.Node{X: 0x2a, Y: 3}, hhc.Node{X: 0x91, Y: 6}
	warmPair(t, srv, u, v)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 16
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	if _, err := conn.Write(pathsFrames(u, v, ids...)); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		resp := readAnswer(t, conn, 5*time.Second)
		if resp.Code != StatusOK || len(resp.Paths) != 4 || seen[resp.ID] {
			t.Fatalf("answer %d: id=%d status=%d paths=%d", i, resp.ID, resp.Code, len(resp.Paths))
		}
		seen[resp.ID] = true
	}
	if got := writes.Load(); got >= n {
		t.Errorf("%d pipelined hits took %d server writes, want fewer than %d", n, got, n)
	}
	if cs := srv.CacheSnapshot(); cs.Hits != n {
		t.Errorf("cache hits = %d, want %d", cs.Hits, n)
	}
}

// TestHeldAnswersFlushedBeforePark: one client write carries a hit and
// then a miss that parks the reader under AdmitBlock (the one worker is
// stalled and the one queue slot taken). The hit's held answer must be
// written before the reader parks, not after the queue frees.
func TestHeldAnswersFlushedBeforePark(t *testing.T) {
	srv, addr := startServer(t, Config{M: 3, Workers: 1, QueueDepth: 1, Admission: AdmitBlock})
	release := make(chan struct{})
	srv.stallForTest = func() { <-release }
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	hu, hv := hhc.Node{X: 0x2a, Y: 3}, hhc.Node{X: 0x91, Y: 6}
	warmPair(t, srv, hu, hv)
	sendMiss(t, addr, hhc.Node{X: 0x1, Y: 0}, hhc.Node{X: 0x2, Y: 3})
	waitFor(t, "worker occupied", func() bool { return srv.activeWorkers.Load() == 1 })
	sendMiss(t, addr, hhc.Node{X: 0x3, Y: 1}, hhc.Node{X: 0x4, Y: 4})
	waitFor(t, "queue full", func() bool { return len(srv.queue) == 1 })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	burst := append(pathsFrames(hu, hv, 1), pathsFrames(hhc.Node{X: 0x5, Y: 2}, hhc.Node{X: 0x6, Y: 5}, 2)...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if resp := readAnswer(t, conn, 2*time.Second); resp.ID != 1 || resp.Code != StatusOK {
		t.Fatalf("first answer id=%d status=%d, want the hit (id 1) ok", resp.ID, resp.Code)
	}
	// The miss is still parked: nothing can have freed the queue.
	if snap := srv.Counters(); snap.Requests != 4 || snap.Completed != 1 {
		t.Fatalf("ledger %s, want requests=4 completed=1 while parked", snap)
	}
	close(release)
	released = true
	if resp := readAnswer(t, conn, 5*time.Second); resp.ID != 2 || resp.Code != StatusOK {
		t.Fatalf("second answer id=%d status=%d, want the parked miss (id 2) ok", resp.ID, resp.Code)
	}
}

package pathsvc

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/hhc"
	"repro/internal/obs"
)

// serveStarted serves srv on a loopback port with a cleanup drain
// (startServer's shape, but usable from benchmarks too).
func serveStarted(tb testing.TB, srv *Server) (*Server, string) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			tb.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// allocClient dials a server built from cfg and returns a v2 client with
// a warmed cache entry for (u, v).
func allocSetupWith(t testing.TB, cfg Config) (*Client, hhc.Node, hhc.Node) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := serveStarted(t, srv)
	c, err := DialWith(addr, DialOptions{Proto: ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	u, v := hhc.Node{X: 0x2a, Y: 3}, hhc.Node{X: 0x91, Y: 6}
	var resp ResponseV2
	for i := 0; i < 50; i++ { // warm the cache, the pools, and the buffers
		if err := c.PathsV2(u, v, 0, time.Second, &resp); err != nil {
			t.Fatal(err)
		}
	}
	return c, u, v
}

// allocSetup is the uninstrumented baseline configuration.
func allocSetup(t testing.TB) (*Client, hhc.Node, hhc.Node) {
	t.Helper()
	return allocSetupWith(t, Config{M: 3})
}

// ServeV2AllocBudget is the explicit steady-state allocation budget for
// one warm-cache OpPaths round trip over protocol v2, counted across
// every goroutine on both sides of the loopback (client encode/decode,
// server read/dispatch/construct/deliver/send). Measured: 9 allocs/op
// (11 under -race); the dominant terms are inherent — the per-request
// task, the coalescing flight entry, and the cache's defensive container
// copy (one outer + m+1 inner slices). The JSON path spends several
// hundred allocations on the same round trip. The margin above the
// measurement absorbs pool refills after an unluckily timed GC, not new
// hot-path costs.
const ServeV2AllocBudget = 16

// TestServeV2AllocBudget extends the TestUninstrumentedAllocIdentity
// discipline to the serve path: the budget is pinned by test so an
// accidental fmt.Sprintf or per-frame buffer on the hot path fails CI
// instead of silently eroding the v2 win.
func TestServeV2AllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is noisy under -short race runs")
	}
	c, u, v := allocSetup(t)
	var resp ResponseV2
	got := testing.AllocsPerRun(400, func() {
		if err := c.PathsV2(u, v, 0, time.Second, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if got > ServeV2AllocBudget {
		t.Errorf("v2 round trip allocates %.1f allocs/op, budget %d", got, ServeV2AllocBudget)
	}
	t.Logf("v2 round trip: %.1f allocs/op (budget %d)", got, ServeV2AllocBudget)
}

// TestServeV2AllocBudgetObserved re-runs the budget with metrics enabled:
// the window histograms record on every request (and rotate once per
// second), so this pins the claim that windowed telemetry rides the
// observer-pointer pattern without adding steady-state allocations.
func TestServeV2AllocBudgetObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is noisy under -short race runs")
	}
	reg := obs.NewRegistry()
	c, u, v := allocSetupWith(t, Config{M: 3, Reg: reg})
	var resp ResponseV2
	got := testing.AllocsPerRun(400, func() {
		if err := c.PathsV2(u, v, 0, time.Second, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if got > ServeV2AllocBudget {
		t.Errorf("instrumented v2 round trip allocates %.1f allocs/op, budget %d", got, ServeV2AllocBudget)
	}
	// The windows must actually have recorded: an accidentally nil-ed
	// svcMetrics would pass the budget while dropping every sample.
	if q := reg.Snapshot(); q.Counters["pathsvc_completed_total"] == 0 {
		t.Error("instrumented run recorded no completed requests")
	}
	t.Logf("instrumented v2 round trip: %.1f allocs/op (budget %d)", got, ServeV2AllocBudget)
}

// ServeV2AllocBudgetTraced is the round-trip budget of the configuration
// hhcd -listen runs: metrics plus the tracer's flight recorder, with no
// -trace sink. Measured: 19 allocs/op (23 under -race): the untraced 9
// plus the request tree — the trace handle, the Req, four phase spans, the
// minted rid and the u/v attr text. A finished tree is recorded, not
// copied, and the budget is the -race count with no margin, so any new
// per-request allocation fails here.
const ServeV2AllocBudgetTraced = 23

// TestServeV2AllocBudgetTraced pins the recorder's per-request cost, so a
// new per-request copy of the tree (or a per-span allocation) fails here.
func TestServeV2AllocBudgetTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is noisy under -short race runs")
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	obs.RegisterSelf(reg, tr, true)
	c, u, v := allocSetupWith(t, Config{M: 3, Reg: reg, Requests: tr})
	var resp ResponseV2
	got := testing.AllocsPerRun(2000, func() {
		if err := c.PathsV2(u, v, 0, time.Second, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if got > ServeV2AllocBudgetTraced {
		t.Errorf("traced v2 round trip allocates %.1f allocs/op, budget %d", got, ServeV2AllocBudgetTraced)
	}
	if total, _ := tr.Totals(); total == 0 {
		t.Error("traced run recorded no request trees")
	}
	t.Logf("traced v2 round trip: %.1f allocs/op (budget %d)", got, ServeV2AllocBudgetTraced)
}

func BenchmarkServeV2Paths(b *testing.B) {
	c, u, v := allocSetup(b)
	var resp ResponseV2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.PathsV2(u, v, 0, time.Second, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeV1Paths(b *testing.B) {
	srv, err := New(Config{M: 3})
	if err != nil {
		b.Fatal(err)
	}
	_, addr := serveStarted(b, srv)
	c, err := DialWith(addr, DialOptions{Proto: ProtocolVersion})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	u, v := "0x2a:3", "0x91:6"
	if _, err := c.Paths(u, v, 0, time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Paths(u, v, 0, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

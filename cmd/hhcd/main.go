// Command hhcd is the disjoint-path query daemon: it serves the
// length-prefixed wire protocols of internal/pathsvc over TCP — JSON v1
// and binary v2, detected per frame, so clients of either version (and
// mixed-version frames on one connection) are answered in kind — backed by
// the container cache (which builds each container once, however many
// requests ask for it at once), with bounded admission, per-request
// deadlines, and width degradation under queue pressure. SIGINT/SIGTERM
// triggers a graceful drain: in-flight and queued requests are answered
// before the process exits 0.
//
// With -peers, N hhcd processes form one logical sharded service: a
// consistent-hash ring over the cache's query key assigns each pair an
// owning peer, non-owned queries are forwarded there over the binary wire
// (at most one hop — the frame's hop-guard bit), and an unreachable owner
// degrades to a correct local answer instead of an error.
//
// Usage:
//
//	hhcd -m 4                                # serve on the default address
//	hhcd -m 4 -addr :9091 -listen :6060      # plus live /metrics and pprof
//	hhcd -m 3 -queue 64 -admission block     # backpressure instead of shedding
//	hhcd -m 3 -addr 127.0.0.1:9101 \
//	  -peers 127.0.0.1:9101,127.0.0.1:9102 -self 0   # one peer of a 2-shard cluster
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pathsvc"
)

func main() {
	m := flag.Int("m", 4, "son-cube dimension m (1..6)")
	addr := flag.String("addr", "127.0.0.1:9091", "TCP address to serve path queries on")
	workers := flag.Int("workers", 0, "construction workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", pathsvc.DefaultQueueDepth, "admission queue depth")
	admission := flag.String("admission", "reject", "full-queue policy: reject|block")
	retryAfter := flag.Duration("retry-after", pathsvc.DefaultRetryAfter, "back-off hint sent with overload rejections")
	timeout := flag.Duration("timeout", pathsvc.DefaultRequestTimeout, "default per-request deadline")
	shed := flag.Float64("shed", pathsvc.DefaultShedThreshold, "queue-fill fraction beyond which responses degrade (0..1]")
	degradeK := flag.Int("k", pathsvc.DefaultDegradeWidth, "container width served while degraded")
	capacity := flag.Int("cache-capacity", cache.DefaultCapacity, "max cached containers (<0 = unbounded)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	duration := flag.Duration("duration", 0, "serve for this long then drain and exit (0 = until signaled)")
	logPath := flag.String("log", "", "write structured JSONL logs (connection events, failed requests) to this file; '-' = stderr")
	slow := flag.Duration("slow", 0, "force-retain requests at least this slow in the /debug/requests flight recorder (0 = off)")
	peers := flag.String("peers", "", "comma-separated cluster peer list (host:port,...), identical on every peer; empty = single-node")
	self := flag.Int("self", 0, "this process's index into -peers")
	obsf := cliutil.RegisterObsFlags(flag.CommandLine)
	obsf.RegisterListenFlag(flag.CommandLine)
	flag.Parse()

	err := run(flag.Args(), obsf, *m, *addr, *workers, *queue, *admission,
		*retryAfter, *timeout, *shed, *degradeK, *capacity, *drain, *duration,
		*logPath, *slow, *peers, *self)
	if cerr := obsf.Close(os.Stdout); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hhcd:", err)
		os.Exit(1)
	}
}

func run(args []string, obsf *cliutil.Obs, m int, addr string, workers, queue int,
	admission string, retryAfter, timeout time.Duration, shed float64, degradeK, capacity int,
	drain, duration time.Duration, logPath string, slow time.Duration,
	peersSpec string, self int) error {
	if err := cliutil.NoTrailingArgs(args); err != nil {
		return err
	}
	if err := cliutil.ValidateM(m); err != nil {
		return err
	}
	policy, err := pathsvc.ParseAdmission(admission)
	if err != nil {
		return err
	}
	// Cluster config validates before anything binds or prints: a malformed
	// -peers list must fail fast with the typed cluster error, never after
	// the daemon looks healthy.
	var clu *cluster.Cluster
	if peersSpec != "" {
		peers, perr := cluster.ParsePeers(peersSpec)
		if perr != nil {
			return fmt.Errorf("-peers: %w", perr)
		}
		if clu, err = cluster.New(cluster.Config{Peers: peers, Self: self}); err != nil {
			return fmt.Errorf("-peers/-self: %w", err)
		}
		defer clu.Close()
	} else if self != 0 {
		return fmt.Errorf("-self %d given without -peers", self)
	}
	// -slow only matters through the flight recorder, which needs the obs
	// layer: asking for it turns the layer on.
	if slow > 0 {
		obsf.Force = true
	}
	if err := obsf.Activate(); err != nil {
		return err
	}
	var logger *obs.Logger
	switch logPath {
	case "":
	case "-":
		logger = obs.NewLogger(os.Stderr, obs.LevelInfo)
	default:
		f, cerr := os.Create(logPath)
		if cerr != nil {
			return fmt.Errorf("-log: %w", cerr)
		}
		defer f.Close()
		logger = obs.NewLogger(f, obs.LevelInfo)
	}
	cfg := pathsvc.Config{
		M:              m,
		Workers:        workers,
		QueueDepth:     queue,
		Admission:      policy,
		RetryAfter:     retryAfter,
		DefaultTimeout: timeout,
		ShedThreshold:  shed,
		DegradeWidth:   degradeK,
		Cache:          cache.Options{Capacity: capacity},
		Reg:            obsf.Registry,
		Logger:         logger,
		Requests:       obsf.EnableRequests(slow),
	}
	if clu != nil {
		// A conditional assignment, not cfg.Router = clu unconditionally: a
		// nil *Cluster in a non-nil interface would look like a live router.
		cfg.Router = clu
		if obsf.Registry != nil {
			clu.Register(obsf.Registry)
		}
	}
	srv, err := pathsvc.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-addr %s: %w", addr, err)
	}
	if clu != nil {
		// Fleet view: membership, ring shares, breaker state, forward
		// counters, and latency exemplars, scraped by hhcobs -cluster.
		obsf.Handle("/debug/cluster", clu.DebugHandler(srv))
	}
	if _, err := obsf.StartListener("hhcd"); err != nil {
		_ = ln.Close()
		return err
	}
	// The banner is the "healthy" signal scripts wait for, so it prints
	// only after every startup step that can fail — config validation, the
	// query listener, the obs listener — has succeeded.
	banner := fmt.Sprintf("hhcd: serving path queries on %s (m=%d, width=%d, queue=%d, admission=%s, proto=v1..v%d)",
		ln.Addr(), m, m+1, queue, policy, pathsvc.MaxProtocolVersion)
	if clu != nil {
		banner += ", " + clu.String()
	}
	fmt.Fprintln(os.Stderr, banner)

	// Drain on SIGINT/SIGTERM or after -duration, whichever comes first.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if duration > 0 {
			select {
			case <-sig:
			case <-time.After(duration):
			}
		} else {
			<-sig
		}
		fmt.Fprintln(os.Stderr, "hhcd: draining (in-flight and queued requests will be answered)")
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "hhcd: drain incomplete:", err)
		}
	}()

	err = srv.Serve(ln)
	// Serve returns drained, so every decoded request has its one answer:
	// the ledger must balance, and a gap is a server bug worth flagging.
	snap := srv.Counters()
	fmt.Fprintf(os.Stderr, "hhcd: drained: %s\n", snap)
	if terminal := snap.Terminal(); terminal != snap.Requests {
		fmt.Fprintf(os.Stderr, "hhcd: ledger imbalance: requests=%d terminal=%d\n", snap.Requests, terminal)
	}
	fmt.Fprintf(os.Stderr, "hhcd: cache: %s\n", srv.CacheSnapshot())
	if clu != nil {
		for _, ps := range clu.Status() {
			fmt.Fprintf(os.Stderr, "hhcd: peer %s: forwarded=%d errors=%d down=%v\n",
				ps.Addr, ps.Forwarded, ps.Errors, ps.Down)
		}
	}
	return err
}

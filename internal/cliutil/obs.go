package cliutil

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Obs is the shared observability wiring of the cmd/ binaries: the
// -metrics and -trace flags, the registry and tracer behind them, and the
// end-of-run dump. Usage pattern in every main:
//
//	obsf := cliutil.RegisterObsFlags(flag.CommandLine)
//	flag.Parse()
//	obsf.Activate()                  // after parse, before work
//	err := run(...)
//	err = errors.Join(err, obsf.Close(os.Stdout))
//
// With neither flag given (and Force unset) the whole layer stays off:
// Activate is a no-op, the construction hot path keeps its uninstrumented
// branch, and Close does nothing.
type Obs struct {
	// MetricsPath is the -metrics value: a file to write the Prometheus
	// text dump to on exit, or "-" for stdout.
	MetricsPath string
	// TracePath is the -trace value: a file that receives every completed
	// span as one JSON line, streamed live, or "-" for stderr. Request
	// trees arrive flattened, each line tagged with its rid.
	TracePath string
	// ListenAddr is the -listen value (see RegisterListenFlag): an address
	// for the live debug HTTP server. A non-empty value enables the layer.
	ListenAddr string
	// Force activates the layer even without file sinks — set it before
	// Activate when another consumer (an HTTP listener) needs the registry.
	Force bool

	// Registry and Tracer are non-nil after a successful Activate that
	// found the layer enabled; nil otherwise. The Tracer also holds the
	// per-request flight recorder, which StartListener serves as
	// /debug/requests once EnableRequests has run.
	Registry *obs.Registry
	Tracer   *obs.Tracer
	// Series is the windowed time-series ring behind /debug/series,
	// non-nil after StartListener on an enabled layer. It samples the
	// registry once per obs.DefaultSeriesInterval until Close.
	Series *obs.SeriesRing

	requests  bool // EnableRequests ran: mount /debug/requests
	traceFile *os.File
	srv       *http.Server
	extra     []extraHandler
}

// extraHandler is one binary-specific debug endpoint queued for the
// -listen mux (hhcd's /debug/cluster, for example).
type extraHandler struct {
	pattern string
	h       http.Handler
}

// Handle queues a binary-specific handler for the -listen debug mux.
// Call between Activate and StartListener; a no-op (the handler is never
// served) when -listen was not given.
func (o *Obs) Handle(pattern string, h http.Handler) {
	o.extra = append(o.extra, extraHandler{pattern: pattern, h: h})
}

// RegisterObsFlags registers -metrics and -trace on fs and returns the
// holder the binary activates after parsing.
func RegisterObsFlags(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.StringVar(&o.MetricsPath, "metrics", "",
		"write a metrics dump (Prometheus text format) to this file on exit; '-' = stdout")
	fs.StringVar(&o.TracePath, "trace", "",
		"stream construction-phase spans as JSON Lines to this file; '-' = stderr")
	return o
}

// RegisterListenFlag registers -listen on fs for the long-running binaries
// (hhcsim, hhcd) that serve their registry live over HTTP. A non-empty
// -listen enables the observability layer even without file sinks; call
// StartListener after Activate to bind and serve.
func (o *Obs) RegisterListenFlag(fs *flag.FlagSet) {
	fs.StringVar(&o.ListenAddr, "listen", "",
		"serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. :6060)")
}

// Enabled reports whether any observability sink was requested.
func (o *Obs) Enabled() bool {
	return o.MetricsPath != "" || o.TracePath != "" || o.ListenAddr != "" || o.Force
}

// Activate builds the registry and tracer and instruments the container
// construction layer process-wide. A no-op when nothing was requested.
func (o *Obs) Activate() error {
	if !o.Enabled() {
		return nil
	}
	o.Registry = obs.NewRegistry()
	o.Tracer = obs.NewTracer(0)
	switch o.TracePath {
	case "":
	case "-":
		o.Tracer.StreamTo(os.Stderr)
	default:
		f, err := os.Create(o.TracePath)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		o.traceFile = f
		o.Tracer.StreamTo(f)
	}
	obs.RegisterRuntime(o.Registry)
	obs.RegisterSelf(o.Registry, o.Tracer, false)
	core.SetObserver(core.NewObserver(o.Registry, o.Tracer))
	return nil
}

// EnableRequests turns on the tracer's flight recorder for
// request-serving binaries: span trees of the most interesting requests,
// retained for /debug/requests and streamed flattened onto -trace. slow
// force-retains requests at least that long (0 disables the slow bucket).
// Call between Activate and StartListener; returns the tracer to hand to
// the server, or nil when the layer is off.
func (o *Obs) EnableRequests(slow time.Duration) *obs.Tracer {
	if o.Registry == nil {
		return nil
	}
	o.requests = true
	o.Tracer.SetSlowThreshold(slow)
	obs.RegisterSelf(o.Registry, o.Tracer, true)
	return o.Tracer
}

// StartListener serves the registry's debug mux (/metrics, /debug/vars,
// /debug/pprof) on the -listen address in a background goroutine and
// prints the resolved URL to stderr under the tool's name. A no-op
// returning "" when -listen was not given. Close shuts the server down.
func (o *Obs) StartListener(name string) (string, error) {
	if o.ListenAddr == "" {
		return "", nil
	}
	mux := obs.Mux(o.Registry)
	extra := ", /debug/series"
	if o.requests {
		mux.Handle("/debug/requests", o.Tracer.Handler())
		extra += ", /debug/requests"
	}
	// The series ring only matters while something can scrape it, so it is
	// created (and its sampler started) here rather than in Activate:
	// short-lived batch runs with just -metrics/-trace skip the goroutine.
	o.Series = obs.NewSeriesRing(o.Registry, obs.DefaultSeriesInterval, obs.DefaultSeriesCapacity)
	o.Series.Start()
	mux.Handle("/debug/series", o.Series.Handler())
	for _, e := range o.extra {
		mux.Handle(e.pattern, e.h)
		extra += ", " + e.pattern
	}
	ln, err := net.Listen("tcp", o.ListenAddr)
	if err != nil {
		o.Series.Stop()
		o.Series = nil
		return "", fmt.Errorf("-listen %s: %w", o.ListenAddr, err)
	}
	o.srv = &http.Server{Handler: mux}
	//hhc:detached reaped by o.srv.Close() in Obs.Close; Serve returns when the listener dies
	go func() { _ = o.srv.Serve(ln) }()
	addr := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "%s: serving http://%s/metrics (also /debug/vars, /debug/pprof/%s)\n", name, addr, extra)
	return addr, nil
}

// Close uninstalls the instrumentation, stops the -listen server, writes
// the metrics dump, and closes the trace stream. stdout is the writer "-"
// dumps to (the tests pass a buffer). Safe to call when Activate never ran.
func (o *Obs) Close(stdout io.Writer) error {
	if o.Registry == nil {
		return nil
	}
	if o.srv != nil {
		_ = o.srv.Close()
		o.srv = nil
	}
	if o.Series != nil {
		o.Series.Stop()
	}
	core.SetObserver(nil)
	var firstErr error
	switch o.MetricsPath {
	case "":
	case "-":
		firstErr = o.Registry.WritePrometheus(stdout)
	default:
		f, err := os.Create(o.MetricsPath)
		if err == nil {
			err = o.Registry.WritePrometheus(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			firstErr = fmt.Errorf("-metrics: %w", err)
		}
	}
	// Detach the stream before closing its sink: StreamTo(nil) blocks until
	// the drain goroutine has written and flushed every queued span, so a
	// -trace file is complete when the process exits.
	o.Tracer.StreamTo(nil)
	if o.traceFile != nil {
		if err := o.traceFile.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("-trace: %w", err)
		}
		o.traceFile = nil
	}
	return firstErr
}

// ServeObs mounts reg's debug mux (/metrics, /debug/vars, /debug/pprof)
// on addr and serves it in a background goroutine. It returns once the
// listener is bound, so callers can print the resolved address (addr may
// use port 0) before starting work.
func ServeObs(addr string, reg *obs.Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("-listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: obs.Mux(reg)}
	//hhc:detached caller owns srv and reaps the goroutine via srv.Close; Serve returns when the listener dies
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

package obs

import (
	"runtime"
	"time"
)

// RegisterRuntime adds the process-level series every long-lived consumer
// of a registry should expose: uptime, goroutine count, heap usage, GC
// pause total, and a build_info marker carrying the toolchain identity as
// labels. Values are read lazily at snapshot time, so registration is
// free; ReadMemStats (microseconds) runs only when something scrapes.
func RegisterRuntime(r *Registry) {
	start := time.Now()
	r.GaugeFunc("process_uptime_seconds",
		"Seconds since the observability layer was activated.",
		func() float64 { return time.Since(start).Seconds() })
	r.GaugeFunc("go_goroutines",
		"Goroutines currently live.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	r.CounterFunc("go_gc_pause_nanoseconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.PauseTotalNs)
		})
	r.Gauge(`build_info{go_version="`+runtime.Version()+
		`",goarch="`+runtime.GOARCH+`",goos="`+runtime.GOOS+`"}`,
		"Toolchain identity (value is always 1; the labels carry the info).").Set(1)
}

// RegisterSelf exposes the observability layer's own health as obs_*
// series: spans completed and spans lost to a saturated -trace drain
// queue, plus, when recorder is set, the flight recorder's totals and
// per-bucket retention. A nil tracer registers nothing; registering the
// same tracer again (to add the recorder series later) is harmless.
func RegisterSelf(r *Registry, tr *Tracer, recorder bool) {
	if tr == nil {
		return
	}
	r.CounterFunc("obs_trace_spans_total",
		"Spans completed by the tracer, streamed or not.", tr.SpansTotal)
	r.CounterFunc("obs_trace_dropped_total",
		"Spans lost because the -trace stream sink could not keep up.", tr.Dropped)
	if !recorder {
		return
	}
	r.CounterFunc("obs_requests_recorded_total",
		"Request trees handed to the flight recorder.",
		func() int64 { total, _ := tr.Totals(); return total })
	r.CounterFunc("obs_requests_errored_total",
		"Recorded request trees that finished with a non-OK code.",
		func() int64 { _, errored := tr.Totals(); return errored })
	bucket := func(name string, pick func() int) {
		r.GaugeFunc(`obs_requests_retained{bucket="`+name+`"}`,
			"Request trees currently retained per flight-recorder bucket.",
			func() float64 { return float64(pick()) })
	}
	bucket("slowest", func() int { n, _, _, _ := tr.RetainedCounts(); return n })
	bucket("errors", func() int { _, n, _, _ := tr.RetainedCounts(); return n })
	bucket("slow", func() int { _, _, n, _ := tr.RetainedCounts(); return n })
	bucket("recent", func() int { _, _, _, n := tr.RetainedCounts(); return n })
}

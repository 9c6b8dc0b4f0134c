package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// liveRates is how many of the busiest counter rates the server view lists.
const liveRates = 8

// liveOpts configures -live: the watched debug addresses, how often to
// redraw, whether to render one frame and exit, how many slow requests to
// list, and the per-scrape timeout.
type liveOpts struct {
	spec    string
	refresh time.Duration
	once    bool
	top     int
	timeout time.Duration
}

// liveFrame is everything one poll of one server gathered, or why it
// failed. requests is nil when the server exposes no flight recorder;
// series and metrics are required — without them there is nothing to show.
type liveFrame struct {
	addr     string
	at       time.Time
	series   obs.SeriesSnapshot
	metrics  map[string]float64
	requests *obs.RequestsSnapshot
	err      error
}

// runLive polls the -live servers every refresh period and redraws:
// one address renders the server view, several the fleet panel. In the
// server view a failed poll ends the session; in the fleet panel a dead
// peer stays a visible row, because showing which member dropped out is
// that view's job.
func runLive(w io.Writer, args []string, o liveOpts) error {
	if len(args) != 0 {
		return errors.New("-live scrapes servers; positional input files do not combine with it")
	}
	if o.top < 1 {
		return fmt.Errorf("-top %d out of range: must be positive", o.top)
	}
	if o.refresh <= 0 {
		return fmt.Errorf("-refresh %s out of range: must be positive", o.refresh)
	}
	addrs, err := splitAddrs("-live", o.spec)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: o.timeout}
	for {
		frames := make([]liveFrame, len(addrs))
		for i, addr := range addrs {
			frames[i] = poll(client, addr)
		}
		if len(frames) == 1 && frames[0].err != nil {
			return frames[0].err
		}
		if !o.once {
			fmt.Fprint(w, "\x1b[2J\x1b[H") // clear and home, top-style
		}
		if len(frames) == 1 {
			renderServer(w, o.top, frames[0])
		} else {
			renderFleet(w, frames)
		}
		if o.once {
			return nil
		}
		time.Sleep(o.refresh)
	}
}

func poll(client *http.Client, addr string) liveFrame {
	f := liveFrame{addr: addr, at: time.Now()}
	base := "http://" + addr
	if err := scrapeJSON(client, base+"/debug/series", &f.series); err != nil {
		f.err = fmt.Errorf("%s/debug/series: %w (is the server running with -listen?)", base, err)
		return f
	}
	if err := scrape(client, base+"/metrics", func(r io.Reader) error {
		f.metrics = parseProm(r)
		return nil
	}); err != nil {
		f.err = fmt.Errorf("%s/metrics: %w", base, err)
		return f
	}
	var rq obs.RequestsSnapshot
	if err := scrapeJSON(client, base+"/debug/requests?format=json", &rq); err == nil {
		f.requests = &rq
	}
	return f
}

// parseProm reads the Prometheus text exposition into name{labels}→value.
// Only the subset the registry emits is handled (no escaping, one value
// per line), which is exactly what the paired server produces.
func parseProm(r io.Reader) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

func latestPoint(s obs.SeriesSnapshot) obs.SeriesPoint {
	if len(s.Points) == 0 {
		return obs.SeriesPoint{}
	}
	return s.Points[len(s.Points)-1]
}

// peersDown counts the cluster members this server's breaker holds down.
func peersDown(prom map[string]float64) int {
	down := 0
	for name, v := range prom {
		if strings.HasPrefix(name, "cluster_peer_down{") && v > 0 {
			down++
		}
	}
	return down
}

// renderFleet prints the side-by-side per-peer table. The down column is
// how many cluster members each peer's breaker currently holds down —
// disagreement across rows localizes a partition.
func renderFleet(w io.Writer, rows []liveFrame) {
	fmt.Fprintf(w, "hhcobs -live fleet  %s  %d peers\n\n", time.Now().Format("15:04:05"), len(rows))
	fmt.Fprintf(w, "  %-22s %8s %10s %10s %10s %10s %9s %5s\n",
		"peer", "qps", "p50", "p99", "fwd-out/s", "fwd-in/s", "errs/s", "down")
	for _, r := range rows {
		if r.err != nil {
			fmt.Fprintf(w, "  %-22s unreachable: %v\n", r.addr, r.err)
			continue
		}
		p, prom := latestPoint(r.series), r.metrics
		fmt.Fprintf(w, "  %-22s %8s %10s %10s %10s %10s %9s %5d\n",
			r.addr,
			fmtRate(p.Rates["pathsvc_completed_total"]),
			fmtSecs(prom[`pathsvc_request_seconds_window{q="p50"}`]),
			fmtSecs(prom[`pathsvc_request_seconds_window{q="p99"}`]),
			fmtRate(p.Rates["cluster_forwarded_total"]),
			fmtRate(p.Rates["cluster_forwarded_in_total"]),
			fmtRate(p.Rates["cluster_forward_errors_total"]),
			peersDown(prom))
	}
}

// renderServer prints one server's pulse: service rates and latency,
// the busiest counters, histogram quantiles, the telemetry layer's own
// health, and the top slowest retained requests. Anything the series ring
// samples is shown; the service lines appear only when the pathsvc_*
// metric set is present.
func renderServer(w io.Writer, top int, f liveFrame) {
	last := latestPoint(f.series)
	fmt.Fprintf(w, "hhcobs -live %s  %s  interval %s  %d/%d points\n\n",
		f.addr, f.at.Format("15:04:05"),
		time.Duration(f.series.IntervalNS), len(f.series.Points), f.series.Capacity)
	renderService(w, last, f.metrics)
	renderRates(w, last)
	renderHists(w, last, f.series.Summary)
	renderObsHealth(w, f.metrics)
	if f.requests != nil {
		renderSlowest(w, top, f.requests)
	}
}

func renderService(w io.Writer, p obs.SeriesPoint, prom map[string]float64) {
	if _, ok := prom["pathsvc_queue_capacity"]; !ok {
		return
	}
	fmt.Fprintf(w, "  service   qps %s  shed %s/s  coalesced %s/s  degraded %s/s\n",
		fmtRate(p.Rates["pathsvc_completed_total"]),
		fmtRate(p.Rates["pathsvc_shed_total"]),
		fmtRate(p.Rates["pathsvc_coalesced_total"]),
		fmtRate(p.Rates["pathsvc_degraded_total"]))
	fmt.Fprintf(w, "  queue     depth %.0f/%.0f  active workers %.0f  open conns %.0f\n",
		prom["pathsvc_queue_depth"], prom["pathsvc_queue_capacity"],
		prom["pathsvc_active_workers"], prom["pathsvc_open_conns"])
	fmt.Fprintf(w, "  latency   p50 %s  p95 %s  p99 %s   (10s window)\n",
		fmtSecs(prom[`pathsvc_request_seconds_window{q="p50"}`]),
		fmtSecs(prom[`pathsvc_request_seconds_window{q="p95"}`]),
		fmtSecs(prom[`pathsvc_request_seconds_window{q="p99"}`]))
	// The sharded-serving line appears only on a cluster peer (hhcd -peers).
	if _, ok := prom["cluster_forwarded_total"]; ok {
		fmt.Fprintf(w, "  cluster   %.0f peers (%d down)  fwd-out %s/s  fwd-in %s/s  fwd-errs %s/s  degraded-local %s/s\n",
			prom["cluster_peers"], peersDown(prom),
			fmtRate(p.Rates["cluster_forwarded_total"]),
			fmtRate(p.Rates["cluster_forwarded_in_total"]),
			fmtRate(p.Rates["cluster_forward_errors_total"]),
			fmtRate(p.Rates["cluster_degraded_local_total"]))
	}
	fmt.Fprint(w, "\n")
}

func renderRates(w io.Writer, p obs.SeriesPoint) {
	type kv struct {
		name string
		rate float64
	}
	var rows []kv
	for name, r := range p.Rates {
		if r > 0 {
			rows = append(rows, kv{name, r})
		}
	}
	if len(rows) == 0 {
		fmt.Fprint(w, "  rates     (no counter activity in the last interval)\n\n")
		return
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].rate != rows[j].rate {
			return rows[i].rate > rows[j].rate
		}
		return rows[i].name < rows[j].name
	})
	if len(rows) > liveRates {
		rows = rows[:liveRates]
	}
	fmt.Fprint(w, "  rates     ")
	for i, r := range rows {
		if i > 0 {
			fmt.Fprint(w, "\n            ")
		}
		fmt.Fprintf(w, "%-40s %s/s", r.name, fmtRate(r.rate))
	}
	fmt.Fprint(w, "\n\n")
}

func renderHists(w io.Writer, p obs.SeriesPoint, summary map[string]obs.HistPoint) {
	if len(p.Hists) == 0 && len(summary) == 0 {
		return
	}
	names := make([]string, 0, len(summary))
	for name := range summary {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprint(w, "  hist                                               last interval              ring summary\n")
	for _, name := range names {
		h, s := p.Hists[name], summary[name]
		fmt.Fprintf(w, "    %-44s p50 %-9s p99 %-9s p50 %-9s p99 %-9s\n",
			name, fmtSecs(h.P50), fmtSecs(h.P99), fmtSecs(s.P50), fmtSecs(s.P99))
	}
	fmt.Fprint(w, "\n")
}

// renderObsHealth surfaces the telemetry layer's own counters: dropped
// spans mean the -trace stream is lossy and the numbers elsewhere are
// undercounting.
func renderObsHealth(w io.Writer, prom map[string]float64) {
	dropped, hasDropped := prom["obs_trace_dropped_total"]
	recorded, hasRecorded := prom["obs_requests_recorded_total"]
	if !hasDropped && !hasRecorded {
		return
	}
	fmt.Fprintf(w, "  obs       spans %.0f (dropped %.0f)  requests recorded %.0f (errored %.0f)\n\n",
		prom["obs_trace_spans_total"], dropped,
		recorded, prom["obs_requests_errored_total"])
}

func renderSlowest(w io.Writer, n int, rq *obs.RequestsSnapshot) {
	fmt.Fprintf(w, "  slowest requests (%d seen, %d errored)\n", rq.Total, rq.Errored)
	if len(rq.Slowest) == 0 {
		fmt.Fprint(w, "    none retained\n")
		return
	}
	rows := rq.Slowest
	if len(rows) > n {
		rows = rows[:n]
	}
	for _, tr := range rows {
		fmt.Fprintf(w, "    %-10s %-8s %10s  %s\n",
			tr.ID, tr.Op, time.Duration(tr.Dur), outcome(tr))
	}
}

// fmtRate renders a per-second rate compactly (1234 -> "1234", 0.5 -> "0.5").
func fmtRate(v float64) string {
	if v >= 100 || v == float64(int64(v)) {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

// fmtSecs renders a duration given in seconds with ms/µs granularity.
func fmtSecs(s float64) string {
	if s <= 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

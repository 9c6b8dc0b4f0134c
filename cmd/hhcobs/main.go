// Command hhcobs is the one reader of the telemetry the other tools
// produce. Offline, it aggregates -trace JSON Lines span streams and
// /debug/requests JSON dumps into a per-phase latency percentile table and
// the slowest request span trees: "where did the time go", after a run.
//
// Usage:
//
//	hhcobs trace.jsonl
//	hhcobs requests.json                 # curl host:6060/debug/requests?format=json
//	hhcobs -top 3 trace.jsonl requests.json
//
// Input kinds are autodetected per file: a whole-file JSON object with the
// flight-recorder snapshot shape, otherwise one span object per line.
// Request trees dumped by the recorder are replayed through the same top-K
// retention the live server uses; flat spans carrying a rid attribute (a
// request tree as -trace streams it) are regrouped into per-request trees
// by that id.
//
// Like hhclint, hhcobs takes positional arguments (the input files) and
// has no observability flags of its own: it is a reporting tool, not a
// workload. It exits non-zero when the inputs yield no samples, so CI can
// assert that an instrumented run actually produced telemetry.
//
// With -cluster, hhcobs turns from an offline reducer into a fleet
// scraper: it polls every peer's /debug/requests and /debug/series live,
// joins the two halves of each forwarded request by rid (the requester's
// tree holds the forward span, the owner's tree is origin-tagged), and
// prints the stitched cross-peer trees with the remote queue/exec/wire
// decomposition next to the fleet-wide phase percentiles:
//
//	hhcobs -cluster 127.0.0.1:6061,127.0.0.1:6062,127.0.0.1:6063
//
// With -live, hhcobs is a terminal dashboard: it polls /metrics,
// /debug/series and /debug/requests every -refresh period and redraws.
// One address renders that server's pulse (request and shed rates,
// windowed latency quantiles, queue pressure, the busiest counters, the
// observability layer's own health, the -top slowest retained requests);
// several addresses render the side-by-side fleet panel, where a dead
// peer stays an "unreachable" row:
//
//	hhcobs -live 127.0.0.1:6060                  # refresh every 2s until ^C
//	hhcobs -live 127.0.0.1:6060 -once            # one frame, no screen control (CI)
//	hhcobs -live 127.0.0.1:6061,127.0.0.1:6062 -refresh 1s
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	top := flag.Int("top", 5, "request span trees to print, slowest first")
	md := flag.Bool("md", false, "render the phase table as markdown")
	clusterSpec := flag.String("cluster", "",
		"comma-separated peer debug addresses (host:port,...) to scrape live and stitch cross-peer traces from")
	live := flag.String("live", "",
		"comma-separated debug addresses to watch live: one renders the server dashboard, several the fleet panel")
	refresh := flag.Duration("refresh", 2*time.Second, "poll and redraw at this period with -live")
	once := flag.Bool("once", false, "with -live, render a single frame without screen control and exit (for CI and piping)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-scrape HTTP timeout with -cluster or -live")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: hhcobs [-top k] [-md] <trace.jsonl | requests.json>...\n"+
				"       hhcobs [-top k] [-md] -cluster host:port,host:port,...\n"+
				"       hhcobs [-top k] [-refresh d] [-once] -live host:port[,host:port,...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	var err error
	switch {
	case *live != "" && *clusterSpec != "":
		err = errors.New("-live and -cluster are separate views; pick one")
	case *live != "":
		err = runLive(os.Stdout, flag.Args(), liveOpts{
			spec: *live, refresh: *refresh, once: *once, top: *top, timeout: *timeout})
	case *clusterSpec != "":
		err = runCluster(os.Stdout, flag.Args(), *clusterSpec, *top, *md, *timeout)
	default:
		err = run(os.Stdout, flag.Args(), *top, *md)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hhcobs:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, paths []string, top int, md bool) error {
	if len(paths) == 0 {
		return errors.New("no input files (want -trace JSONL or /debug/requests JSON dumps)")
	}
	if top < 1 {
		return fmt.Errorf("-top %d out of range: must be positive", top)
	}
	var traces []*obs.RequestTrace
	var spans []obs.Span
	for _, path := range paths {
		ts, ss, err := parseFile(path)
		if err != nil {
			return err
		}
		traces = append(traces, ts...)
		spans = append(spans, ss...)
	}
	traces = append(traces, regroup(spans)...)

	phases := phaseSamples(traces, spans)
	if len(phases) == 0 {
		return errors.New("inputs contain no spans or request traces")
	}
	if err := phaseTable(phases).renderAs(w, md); err != nil {
		return err
	}
	return printSlowest(w, traces, top)
}

// peerScrape is one peer's live telemetry: its retained request trees and
// the windowed series the fleet table summarizes. id is the peer's
// cluster identity (its serve address, from /debug/cluster) — the name
// forwarded trees carry in Origin — falling back to the scraped debug
// address on a single-node server; stitching keys peers by it.
type peerScrape struct {
	addr   string
	id     string
	snap   obs.RequestsSnapshot
	traces []*obs.RequestTrace
	series obs.SeriesSnapshot
}

// runCluster scrapes every peer, renders the fleet summary and the
// fleet-wide phase percentiles, then stitches cross-peer traces by rid.
func runCluster(w io.Writer, args []string, spec string, top int, md bool, timeout time.Duration) error {
	if len(args) != 0 {
		return errors.New("-cluster scrapes peers live; positional input files do not combine with it")
	}
	if top < 1 {
		return fmt.Errorf("-top %d out of range: must be positive", top)
	}
	addrs, err := splitAddrs("-cluster", spec)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: timeout}
	peers := make([]peerScrape, 0, len(addrs))
	byPeer := make(map[string][]*obs.RequestTrace, len(addrs))
	var all []*obs.RequestTrace
	for _, addr := range addrs {
		ps := peerScrape{addr: addr}
		base := "http://" + addr
		if err := scrapeJSON(client, base+"/debug/requests?format=json", &ps.snap); err != nil {
			return fmt.Errorf("%s/debug/requests: %w (is the peer running with -listen and -slow or tracing on?)", base, err)
		}
		if err := scrapeJSON(client, base+seriesWindow, &ps.series); err != nil {
			return fmt.Errorf("%s/debug/series: %w", base, err)
		}
		// /debug/cluster names the peer as the fleet knows it (its serve
		// address, which Origin tags carry); absent on single-node servers.
		ps.id = addr
		var ident struct {
			Self string `json:"self"`
		}
		if err := scrapeJSON(client, base+"/debug/cluster", &ident); err == nil && ident.Self != "" {
			ps.id = ident.Self
		}
		ps.traces = dedupTraces(ps.snap)
		byPeer[ps.id] = ps.traces
		all = append(all, ps.traces...)
		peers = append(peers, ps)
	}

	if err := fleetTable(peers).renderAs(w, md); err != nil {
		return err
	}
	phases := phaseSamples(all, nil)
	if len(phases) == 0 {
		return errors.New("no peer retained any request trace (drive load with rids first)")
	}
	if err := phaseTable(phases).renderAs(w, md); err != nil {
		return err
	}
	return printStitched(w, obs.StitchTraces(byPeer), top)
}

// splitAddrs parses the comma-separated address list of the named flag.
func splitAddrs(name, spec string) ([]string, error) {
	var addrs []string
	for _, p := range strings.Split(spec, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("%s %q: empty peer entry", name, spec)
		}
		addrs = append(addrs, p)
	}
	return addrs, nil
}

// seriesWindow is the /debug/series query every live view reads: the
// last 10 interval points, whose summary is the one windowed latency
// quantile the tool shows (10s at the default one-second interval).
const seriesWindow = "/debug/series?last=10"

// requestLatency is the windowed end-to-end latency of one scraped
// server: the series summary of its pathsvc_request_seconds histogram.
func requestLatency(s obs.SeriesSnapshot) obs.HistPoint {
	return s.Summary["pathsvc_request_seconds"]
}

// scrape GETs url and hands a 200 response body to read.
func scrape(client *http.Client, url string, read func(io.Reader) error) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return read(resp.Body)
}

func scrapeJSON(client *http.Client, url string, into any) error {
	return scrape(client, url, func(r io.Reader) error { return json.NewDecoder(r).Decode(into) })
}

// fleetTable is one row per scraped peer: totals from the flight recorder,
// the newest interval's qps and the windowed latency from the series ring.
func fleetTable(peers []peerScrape) table {
	tb := stats.NewTable("fleet", "peer", "requests", "errored", "retained", "qps", "p50(ms)", "p99(ms)")
	for _, ps := range peers {
		qps := latestPoint(ps.series).Rates["pathsvc_completed_total"]
		lat := requestLatency(ps.series)
		tb.AddRow(ps.id, ps.snap.Total, ps.snap.Errored, len(ps.traces), qps, lat.P50*1e3, lat.P99*1e3)
	}
	return table{tb}
}

// printStitched renders the joined cross-peer trees, slowest forward
// first, with the remote decomposition the owner relayed: how much of the
// forward span was the owner's queue wait, its execution, and the wire.
func printStitched(w io.Writer, stitched []*obs.StitchedTrace, top int) error {
	fmt.Fprintf(w, "stitched cross-peer traces (%d)\n", len(stitched))
	if len(stitched) == 0 {
		fmt.Fprint(w, "  none (no rid present on both sides of a forward)\n")
		return nil
	}
	rows := stitched
	if len(rows) > top {
		rows = rows[:top]
	}
	for i, st := range rows {
		fmt.Fprintf(w, "  %d. %s  %s -> %s  total=%s forward=%s remote_queue=%s remote_exec=%s wire=%s\n",
			i+1, st.RID, st.RequesterPeer, st.OwnerPeer,
			time.Duration(st.Root.Dur), time.Duration(st.ForwardNS),
			time.Duration(st.RemoteQueueNS), time.Duration(st.RemoteExecNS),
			time.Duration(st.WireNS()))
		printTree(w, st.Root.Spans, "     ")
	}
	return nil
}

// printTree renders spans one per line, children indented under parents.
func printTree(w io.Writer, spans []*obs.Span, indent string) {
	for _, s := range spans {
		fmt.Fprintf(w, "%s%s %s%s\n", indent, s.Name, fmtMS(s.Dur), fmtAttrs(s.Attrs))
		printTree(w, s.Children, indent+"  ")
	}
}

// parseFile reads one input and detects its kind: a whole-file flight
// recorder snapshot, or one flat span per line.
func parseFile(path string) ([]*obs.RequestTrace, []obs.Span, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(strings.TrimSpace(string(raw))) == 0 {
		return nil, nil, fmt.Errorf("%s: empty input", path)
	}
	// Snapshot detection: a single JSON object carrying the recorder's
	// bucket keys. A JSONL file never parses as one value (multiple
	// top-level objects), so a successful whole-file parse plus the
	// "recent" key is decisive.
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err == nil {
		if _, ok := probe["recent"]; ok {
			var snap obs.RequestsSnapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			return dedupTraces(snap), nil, nil
		}
	}
	spans, err := obs.ReadSpans(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, fmt.Errorf("%s:%w", path, err)
	}
	return nil, spans, nil
}

// dedupTraces flattens a snapshot's buckets into unique traces — the same
// request appears in several buckets (recent + slowest + errors).
func dedupTraces(snap obs.RequestsSnapshot) []*obs.RequestTrace {
	seen := map[string]bool{}
	var out []*obs.RequestTrace
	for _, bucket := range [][]*obs.RequestTrace{snap.Recent, snap.Slowest, snap.Errors, snap.Slow} {
		for _, tr := range bucket {
			key := fmt.Sprintf("%s/%d", tr.ID, tr.Start)
			if !seen[key] {
				seen[key] = true
				out = append(out, tr)
			}
		}
	}
	return out
}

// regroup reassembles per-request trees from the -trace stream: flat spans
// carrying a rid attribute, with a "request" span per request as the root.
// Phase spans for a rid whose root never appeared (truncated file) still
// form a tree, just without op/outcome.
func regroup(spans []obs.Span) []*obs.RequestTrace {
	byID := map[string]*obs.RequestTrace{}
	var order []string
	get := func(rid string) *obs.RequestTrace {
		tr := byID[rid]
		if tr == nil {
			tr = &obs.RequestTrace{ID: rid}
			byID[rid] = tr
			order = append(order, rid)
		}
		return tr
	}
	for _, s := range spans {
		attrs := map[string]string{}
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Value
		}
		rid := attrs["rid"]
		if rid == "" {
			continue
		}
		if s.Name == obs.PhaseRequest {
			tr := get(rid)
			tr.Op, tr.Start, tr.Dur, tr.Code = attrs["op"], s.Start, s.Dur, attrs["code"]
			for _, a := range s.Attrs {
				if a.Key != "rid" && a.Key != "op" && a.Key != "code" {
					tr.Attrs = append(tr.Attrs, a)
				}
			}
			continue
		}
		var kept []obs.Attr
		for _, a := range s.Attrs {
			if a.Key != "rid" {
				kept = append(kept, a)
			}
		}
		get(rid).Spans = append(get(rid).Spans, &obs.Span{
			Name: s.Name, Start: s.Start, Dur: s.Dur, Attrs: kept,
		})
	}
	out := make([]*obs.RequestTrace, 0, len(order))
	for _, rid := range order {
		out = append(out, byID[rid])
	}
	return out
}

// phaseSamples pools span durations (ms) by phase name: every span of every
// request tree (children included) plus every flat span. The whole-request
// duration pools under "request".
func phaseSamples(traces []*obs.RequestTrace, spans []obs.Span) map[string][]float64 {
	out := map[string][]float64{}
	add := func(name string, durNS int64) {
		out[name] = append(out[name], float64(durNS)/1e6)
	}
	var walk func(ss []*obs.Span)
	walk = func(ss []*obs.Span) {
		for _, s := range ss {
			add(s.Name, s.Dur)
			walk(s.Children)
		}
	}
	for _, tr := range traces {
		add(obs.PhaseRequest, tr.Dur)
		walk(tr.Spans)
	}
	for _, s := range spans {
		// Rid-tagged spans were already counted through their regrouped
		// trees; counting them again would double every sample.
		if hasAttr(s.Attrs, "rid") {
			continue
		}
		add(s.Name, s.Dur)
	}
	return out
}

func hasAttr(attrs []obs.Attr, key string) bool {
	for _, a := range attrs {
		if a.Key == key {
			return true
		}
	}
	return false
}

// table wraps stats.Table with the markdown/plain choice.
type table struct{ *stats.Table }

func (t table) renderAs(w io.Writer, md bool) error {
	if md {
		return t.RenderMarkdown(w)
	}
	return t.Render(w)
}

func phaseTable(phases map[string][]float64) table {
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	tb := stats.NewTable("phase latency (ms)", "phase", "count", "p50", "p95", "p99", "max")
	for _, name := range names {
		xs := phases[name]
		ps := stats.Percentiles(xs, 50, 95, 99)
		tb.AddRow(name, len(xs), ps[0], ps[1], ps[2], stats.SummarizeFloats(xs).Max)
	}
	return table{tb}
}

// printSlowest renders the top slowest request trees, reusing the live
// recorder's retention heap so offline ranking matches /debug/requests.
func printSlowest(w io.Writer, traces []*obs.RequestTrace, top int) error {
	if len(traces) == 0 {
		return nil
	}
	rec := obs.NewTracer(top)
	for _, tr := range traces {
		rec.Record(tr)
	}
	fmt.Fprintf(w, "slowest requests (%d of %d)\n", min(top, len(traces)), len(traces))
	for i, tr := range rec.Snapshot().Slowest {
		fmt.Fprintf(w, "  %d. %s %s %s %s%s\n",
			i+1, tr.ID, tr.Op, fmtMS(tr.Dur), outcome(tr), fmtAttrs(tr.Attrs))
		printTree(w, tr.Spans, "     ")
	}
	return nil
}

// outcome names a finished request's result: its code, or "ok".
func outcome(tr *obs.RequestTrace) string {
	if tr.Code != "" {
		return tr.Code
	}
	return "ok"
}

func fmtMS(ns int64) string {
	return fmt.Sprintf("%.3fms", float64(ns)/1e6)
}

func fmtAttrs(attrs []obs.Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = a.Key + "=" + a.Value
	}
	sort.Strings(parts)
	return "  [" + strings.Join(parts, " ") + "]"
}

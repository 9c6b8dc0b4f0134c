package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
	"strings"
	"time"
)

// Handler serves the flight recorder as /debug/requests, x/net/trace
// style: an HTML table of the retained span trees by default, the raw
// JSON snapshot with ?format=json (or an Accept header naming
// application/json). The JSON shape is RequestsSnapshot; cmd/hhcobs
// consumes it directly.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := t.Snapshot()
		if r.URL.Query().Get("format") == "json" ||
			strings.Contains(r.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = WriteRequestsJSON(w, snap)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeRequestsHTML(w, snap)
	})
}

// WriteRequestsJSON renders a snapshot as indented JSON, the exact
// /debug/requests?format=json payload (split out so tests can golden-file
// it and tools can re-serialize aggregated snapshots).
func WriteRequestsJSON(w io.Writer, snap RequestsSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

func writeRequestsHTML(w io.Writer, snap RequestsSnapshot) {
	fmt.Fprint(w, `<!DOCTYPE html><html><head><title>/debug/requests</title><style>
body { font-family: sans-serif; margin: 1em; }
table { border-collapse: collapse; margin-bottom: 1.5em; }
th, td { border: 1px solid #ccc; padding: 2px 8px; text-align: left; vertical-align: top; }
th { background: #eee; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
pre { margin: 0; font-size: 90%; }
.err { color: #a00; }
.slow { color: #850; }
</style></head><body>
`)
	fmt.Fprintf(w, "<h1>/debug/requests</h1><p>%d requests seen, %d errored",
		snap.Total, snap.Errored)
	if snap.SlowThresholdNS > 0 {
		fmt.Fprintf(w, ", slow threshold %s", time.Duration(snap.SlowThresholdNS))
	}
	fmt.Fprint(w, "</p>\n")
	writeTraceTable(w, "Slowest", snap.Slowest)
	writeTraceTable(w, "Recent errors", snap.Errors)
	if snap.SlowThresholdNS > 0 {
		writeTraceTable(w, "Recent slow", snap.Slow)
	}
	writeTraceTable(w, "Recent", snap.Recent)
	fmt.Fprint(w, "</body></html>\n")
}

func writeTraceTable(w io.Writer, title string, traces []*RequestTrace) {
	fmt.Fprintf(w, "<h2>%s (%d)</h2>\n", html.EscapeString(title), len(traces))
	if len(traces) == 0 {
		fmt.Fprint(w, "<p>none</p>\n")
		return
	}
	fmt.Fprint(w, "<table><tr><th>id</th><th>op</th><th>outcome</th><th>duration</th><th>attrs</th><th>spans</th></tr>\n")
	for _, tr := range traces {
		outcome, class := "ok", ""
		if tr.Code != "" {
			outcome, class = tr.Code, ` class="err"`
		} else if tr.Slow {
			class = ` class="slow"`
		}
		fmt.Fprintf(w, "<tr%s><td>%s</td><td>%s</td><td>%s</td><td class=\"num\">%s</td><td>%s</td><td><pre>",
			class,
			html.EscapeString(tr.ID), html.EscapeString(tr.Op),
			html.EscapeString(outcome), time.Duration(tr.Dur),
			html.EscapeString(attrString(tr.Attrs)))
		writeSpanTree(w, tr.Spans, 0)
		fmt.Fprint(w, "</pre></td></tr>\n")
	}
	fmt.Fprint(w, "</table>\n")
}

// writeSpanTree renders the tree indented, one span per line.
func writeSpanTree(w io.Writer, spans []*Span, depth int) {
	for _, s := range spans {
		line := fmt.Sprintf("%s%-12s %10s", strings.Repeat("  ", depth),
			s.Name, time.Duration(s.Dur))
		if a := attrString(s.Attrs); a != "" {
			line += "  " + a
		}
		fmt.Fprintf(w, "%s\n", html.EscapeString(line))
		writeSpanTree(w, s.Children, depth+1)
	}
}

// attrString renders attrs as "k=v k2=v2" in caller order.
func attrString(attrs []Attr) string {
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = a.Key + "=" + a.Value
	}
	return strings.Join(parts, " ")
}

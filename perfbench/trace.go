package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
)

// The traced run: the generator sends a rid with every request and keeps
// one client span per request in memory; hhcd (-trace) streams its
// per-request admission/queue/exec/encode/forward spans, each tagged with
// the rid. Joining the two by rid gives one tree per request, rooted at the
// client span.

// tracePhases are hhcd's top-level request phases. forward is reported
// whole: its remote_queue/remote_exec/wire children are synthesized from
// the owner's relayed timing and exactly tile it.
var tracePhases = []string{"admission", "queue", "exec", "encode", "forward"}

// clientSpan is one request as the generator saw it.
type clientSpan struct {
	rid   string
	peer  int
	start int64 // unix ns
	dur   int64
}

// writeClientSpans writes the generator's spans as obs.Span JSONL, the
// same format as hhcd's -trace stream.
func writeClientSpans(w io.Writer, spans []clientSpan) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(obs.Span{Name: "client", Start: s.start, Dur: s.dur,
			Attrs: []obs.Attr{obs.String("rid", s.rid)}}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// serverTree is one request's hhcd spans, by phase name.
type serverTree struct {
	request int64
	phase   map[string]int64
}

// readServerTrees reads an hhcd -trace stream, keeping the spans of the
// wanted rids. Spans without a rid (construction spans) are skipped.
func readServerTrees(r io.Reader, want map[string]bool) (map[string]*serverTree, error) {
	out := map[string]*serverTree{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		var s obs.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("trace line: %w", err)
		}
		rid := ""
		for _, a := range s.Attrs {
			if a.Key == "rid" {
				rid = a.Value
			}
		}
		if !want[rid] {
			continue
		}
		t := out[rid]
		if t == nil {
			t = &serverTree{phase: map[string]int64{}}
			out[rid] = t
		}
		if s.Name == "request" {
			t.request = s.Dur
		} else {
			t.phase[s.Name] += s.Dur
		}
	}
	return out, sc.Err()
}

// phaseRow is one line of the per-phase table.
type phaseRow struct {
	name     string
	n        int
	p50, p99 int64 // ns
}

// joined is the outcome of a rid join.
type joined struct {
	rows    []phaseRow
	clients int // client spans
	matched int // client spans with a server tree
}

// joinSpans joins client spans with server trees (trees[peer][rid]) and
// computes per-phase self times. server_other is the part of hhcd's
// request span no phase covers (read, decode, dispatch); client_other is
// the part of the client span outside hhcd's request span (client encode
// and demux, loopback, kernel). unattributed is their sum: client time no
// named phase explains.
func joinSpans(spans []clientSpan, trees []map[string]*serverTree) joined {
	vals := map[string][]int64{}
	j := joined{clients: len(spans)}
	for _, cs := range spans {
		t := trees[cs.peer][cs.rid]
		if t == nil || t.request == 0 {
			continue
		}
		j.matched++
		var covered int64
		for _, p := range tracePhases {
			if d, ok := t.phase[p]; ok {
				vals[p] = append(vals[p], d)
				covered += d
			}
		}
		serverOther := max(t.request-covered, 0)
		clientOther := max(cs.dur-t.request, 0)
		vals["server_other"] = append(vals["server_other"], serverOther)
		vals["client_other"] = append(vals["client_other"], clientOther)
		vals["unattributed"] = append(vals["unattributed"], serverOther+clientOther)
		vals["client_total"] = append(vals["client_total"], cs.dur)
	}
	names := append(append([]string{}, tracePhases...), "server_other", "client_other", "unattributed", "client_total")
	for _, name := range names {
		xs := vals[name]
		sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
		j.rows = append(j.rows, phaseRow{name: name, n: len(xs), p50: sorted(xs, 0.5), p99: sorted(xs, 0.99)})
	}
	return j
}

func (j joined) p50(name string) int64 {
	for _, r := range j.rows {
		if r.name == name {
			return r.p50
		}
	}
	return 0
}

func (j joined) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "traced run, %s: %d of %d client spans joined by rid\n", workload, j.matched, j.clients)
	fmt.Fprintf(w, "  %-14s %8s %10s %10s\n", "phase", "n", "p50_us", "p99_us")
	for _, r := range j.rows {
		fmt.Fprintf(w, "  %-14s %8d %10.1f %10.1f\n", r.name, r.n, us(r.p50), us(r.p99))
	}
}

// loadTraces reads each peer's -trace file, keeping the rids sent to it.
func loadTraces(files []string, spans []clientSpan) ([]map[string]*serverTree, error) {
	readers := make([]io.Reader, len(files))
	for i, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		readers[i] = f
	}
	return loadTraceReaders(readers, spans)
}

func loadTraceReaders(readers []io.Reader, spans []clientSpan) ([]map[string]*serverTree, error) {
	want := make([]map[string]bool, len(readers))
	for i := range want {
		want[i] = map[string]bool{}
	}
	for _, s := range spans {
		want[s.peer][s.rid] = true
	}
	out := make([]map[string]*serverTree, len(readers))
	for i, r := range readers {
		var err error
		if out[i], err = readServerTrees(r, want[i]); err != nil {
			return nil, fmt.Errorf("trace of peer %d: %w", i, err)
		}
	}
	return out, nil
}

// Command perfbench is the service benchmark for hhcd. It runs hhcd as its
// own process (GOMAXPROCS=1) and drives one named workload from this
// process, checking every answer against a reference container, and
// prints the run's metrics as one JSON object on the last line of
// standard output. run.sh builds hhcd and this command and runs it; see
// README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run ("+workloadNames()+", or all)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (bare and traced runs too)")
	hhcd := flag.String("hhcd", "", "hhcd binary")
	dir := flag.String("dir", "", "directory for trace files")
	flag.Parse()
	if err := run(os.Stdout, *workloadName, *seed, *seconds, *trace, *hhcd, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

func run(stdout io.Writer, name string, seed int64, seconds float64, trace int, hhcd, dir string) error {
	runtime.GOMAXPROCS(1)
	// The generator allocates per response (v1 JSON above all); fewer GC
	// cycles keep its own pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds %v: want > 0", seconds)
	}
	if hhcd == "" || dir == "" {
		return fmt.Errorf("-hhcd and -dir are required")
	}
	var ws []workload
	if name == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	total := result{correct: true}
	for _, w := range ws {
		in, err := newInputs(w, seed)
		if err != nil {
			return err
		}
		b := &bench{w: w, in: in, hhcd: hhcd, dir: dir, seconds: seconds, out: stdout}
		res, err := b.run(trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printTable(stdout, w.name, res)
		total.correct = total.correct && res.correct
		total.attempted += res.attempted
		total.failed += res.failed
		for _, m := range res.metrics {
			if len(ws) > 1 {
				m.name = w.name + "." + m.name
			}
			total.metrics = append(total.metrics, m)
		}
	}
	line, err := total.marshal()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !total.correct {
		return fmt.Errorf("an answer failed the reference check")
	}
	return nil
}

func printTable(w io.Writer, workload string, res result) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, res.correct, res.attempted, res.failed)
	for _, m := range res.metrics {
		fmt.Fprintf(w, "  %-30s %16.4f %s\n", m.name, m.value, m.unit)
	}
}

// marshal renders the result line, metrics in report order.
func (r result) marshal() ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"correct":%v,"attempted":%d,"failed":%d,"metrics":{`, r.correct, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			buf.WriteByte(',')
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		name, err := json.Marshal(m.name)
		if err != nil {
			return nil, err
		}
		unit, err := json.Marshal(m.unit)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, `%s:{"value":%s,"unit":%s}`, name, strconv.FormatFloat(m.value, 'g', -1, 64), unit)
	}
	buf.WriteString("}}")
	return buf.Bytes(), nil
}

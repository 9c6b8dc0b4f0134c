package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// traceTimes matches the two clock-dependent fields of a streamed line.
var traceTimes = regexp.MustCompile(`"(start_ns|dur_ns)":-?\d+`)

// TestTraceStreamGolden pins the bytes of the -trace JSONL stream: a flat
// root span in core's style, then request trees flattened onto the same
// stream with their rid. perfbench's rid join and cmd/hhcobs's regroup
// both parse these lines, so drift is an interface break. Only start_ns
// and dur_ns are zeroed; key order, attrs and line order are compared
// byte for byte.
func TestTraceStreamGolden(t *testing.T) {
	var buf bytes.Buffer
	tr, rt := goldenStream(&buf)

	sp := tr.Start("realize", String("u", "0x2a:3"), String("v", "0x91:6"))
	sp.SetAttr("paths", "4")
	sp.End()

	q := rt.StartRequest("paths", "g1", String("peer", "unit"))
	q.SetAttr("u", "0x2a:3")
	q.StartSpan("admission").End()
	exec := q.StartSpan("exec")
	exec.StartChild("realize", String("pair", "0")).End()
	exec.End()
	q.StartSpan("encode").End()
	q.SetAttr("width", "4")
	q.Finish("")

	q = rt.StartRequest("paths", "", String("peer", "unit"))
	q.StartSpan("admission").End()
	q.Finish("overload")

	q = rt.StartRequest("paths", "g2", String("peer", "127.0.0.1:9102"))
	q.SetOrigin("127.0.0.1:9101")
	q.StartSpan("queue").End()
	q.StartSpan("exec").End()
	q.Finish("")

	q = rt.StartRequest("paths", "g3", String("peer", "unit"))
	fwd := q.StartSpan("forward")
	fwd.SetAttr("peer", "127.0.0.1:9102")
	fwd.End()
	fwd.Children = append(fwd.Children,
		&Span{Name: "remote_queue", Start: 1, Dur: 10},
		&Span{Name: "remote_exec", Start: 11, Dur: 20},
		&Span{Name: "wire", Start: 31, Dur: 5})
	q.StartSpan("encode").End()
	q.Finish("")

	tr.StreamTo(nil)
	got := traceTimes.ReplaceAll(buf.Bytes(), []byte(`"$1":0`))
	path := filepath.Join("testdata", "trace_stream.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-trace stream drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// goldenStream builds one tracer streaming to w, the way cliutil wires
// hhcd -trace; it serves both the flat root and the request trees.
func goldenStream(w *bytes.Buffer) (*Tracer, *Tracer) {
	tr := NewTracer(0)
	tr.StreamTo(w)
	return tr, tr
}

package pathsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hhc"
)

// encodeV1Reflect is the v1 encoder as it was before encodeV1 appended
// its fields itself: every node rendered to its own string, a Response
// built around them and handed to encoding/json. It is the oracle
// encodeV1 must match byte for byte.
func encodeV1Reflect(s *Server, p *pendingReq, out *outcome) []byte {
	format := func(paths [][]hhc.Node) [][]string {
		if len(paths) == 0 {
			return nil
		}
		text := make([][]string, len(paths))
		for i, path := range paths {
			text[i] = make([]string, len(path))
			for j, n := range path {
				text[i][j] = s.g.FormatNode(n)
			}
		}
		return text
	}
	resp := &Response{Ver: ProtocolVersion, ID: p.id, RID: p.rid, Op: p.op,
		Code: out.code, Err: out.errMsg, RetryAfterMS: wireTimeoutMS(out.retryAfter),
		QueueNS: p.queueNS, ExecNS: out.execNS,
		Degraded: out.degraded, Width: out.width, Full: out.full}
	resp.Paths = format(out.paths)
	if out.results != nil {
		resp.Results = make([]BatchItem, len(out.results))
		for i, item := range out.results {
			resp.Results[i] = BatchItem{U: p.echo[i][0], V: p.echo[i][1], Paths: format(item.Paths), Err: item.Err}
		}
	}
	if p.op == OpInfo {
		resp.M, resp.VerMax = s.g.M(), MaxProtocolVersion
	}
	payload, _ := json.Marshal(resp)
	if len(payload) > p.pc.maxSend {
		payload, _ = json.Marshal(&Response{Ver: ProtocolVersion, ID: p.id, Op: p.op, Code: CodeInternal,
			Err: fmt.Sprintf("%v: %d > %d bytes", ErrFrameTooLarge, len(payload), p.pc.maxSend)})
	}
	return payload
}

// TestEncodeV1AllocFree: a warm m=3 paths answer encodes into a buffer
// that is already large enough without a single allocation, and into
// the same bytes as the reflective oracle.
func TestEncodeV1AllocFree(t *testing.T) {
	srv, err := New(Config{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := srv.cache.Paths(hhc.Node{X: 0x0, Y: 0}, hhc.Node{X: 0xff, Y: 7}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := &pendingReq{pc: &serverConn{maxSend: DefaultMaxFrame}, proto: ProtocolVersion,
		id: 42, rid: "req-42", op: OpPaths, queueNS: 1500}
	out := &outcome{paths: paths, execNS: 2500, width: len(paths), full: len(paths)}
	buf := make([]byte, 0, 16<<10)
	if got := testing.AllocsPerRun(200, func() { buf = srv.encodeV1(buf[:0], p, out) }); got != 0 {
		t.Errorf("encodeV1 allocates %.1f times per warm m=3 answer, want 0", got)
	}
	if want := encodeV1Reflect(srv, p, out); !bytes.Equal(buf, want) {
		t.Errorf("encodeV1 = %s\nwant %s", buf, want)
	}
}

// shapeReader draws path sets from fuzz bytes, reading 0 once they run
// out.
type shapeReader []byte

func (r *shapeReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// paths draws up to three paths of up to four nodes each; a path may be
// empty.
func (r *shapeReader) paths() [][]hhc.Node {
	n := int(r.next() % 4)
	if n == 0 {
		return nil
	}
	paths := make([][]hhc.Node, n)
	for i := range paths {
		paths[i] = make([]hhc.Node, r.next()%5)
		for j := range paths[i] {
			x := uint64(r.next()) << (r.next() % 64)
			paths[i][j] = hhc.Node{X: x, Y: r.next()}
		}
	}
	return paths
}

// FuzzEncodeV1MatchesJSON: for any strings (invalid UTF-8, control
// bytes, HTML and JSON metacharacters, U+2028), numbers, flags and small
// path sets, encodeV1 writes exactly the bytes json.Marshal writes for
// the Response the reflective encoder built, frame-limit refusal
// included. A shape byte with its high bit set adds a batch of up to
// three items, each with or without paths and an error.
func FuzzEncodeV1MatchesJSON(f *testing.F) {
	f.Add(OpPaths, "", "", "", "", "", uint64(1), int64(0), int64(0), int64(0), false, 4, 4, DefaultMaxFrame,
		[]byte{2, 3, 0x01, 0, 0, 0xff, 3, 7, 0x10, 60, 99, 0, 4, 1, 1, 1})
	f.Add(OpRoute, "rid-<1>&2", "", "", "", "", uint64(1<<63), int64(-5), int64(12345), int64(0), true, 1, 4, DefaultMaxFrame,
		[]byte{1, 0})
	f.Add(OpBatch, "r x", "", "", "a\"b\\c", " <é>", uint64(7), int64(1), int64(2), int64(0), false, 0, 0, DefaultMaxFrame,
		[]byte{0, 0x83, 1, 2, 1, 1, 5, 0, 0, 2, 3, 0})
	f.Add(OpBatch, "", "", "hhc: node \"bogus\": want x:y", "\x01", "", uint64(3), int64(0), int64(0), int64(0), false, 0, 0, DefaultMaxFrame,
		[]byte{0, 0x80})
	f.Add(OpPaths, "\xff\xfe", CodeOverload, "pathsvc: server overloaded, queue full", "", "", uint64(9), int64(3), int64(0), int64(1500000), false, 0, 0, DefaultMaxFrame,
		[]byte{})
	f.Add(OpInfo, "", "", "", "", "", uint64(2), int64(0), int64(0), int64(0), false, 4, 4, DefaultMaxFrame, []byte{})
	f.Add("un\tknown\x7f", " ", CodeBadRequest, "op \"x\" & <y>", "", "", uint64(0), int64(0), int64(0), int64(-1), false, -1, 0, DefaultMaxFrame,
		[]byte{})
	f.Add(OpPaths, "r", "", "", "", "", uint64(5), int64(0), int64(0), int64(0), false, 3, 4, 100,
		[]byte{3, 4, 0xff, 63, 200, 0xff, 62, 201, 1, 1, 1, 0, 0, 0, 4})
	// One seed per byte class the quoting must hand to encoding/json, each
	// alone in an otherwise verbatim string.
	for _, c := range []string{"<", ">", "&", `"`, `\`, "\x01", "\x7f", "\u2028", "\u2029", "\xff", "é"} {
		f.Add(OpPing, "r"+c, "", "", "", "", uint64(1), int64(0), int64(0), int64(0), false, 0, 0, DefaultMaxFrame, []byte{})
	}
	srv, err := New(Config{M: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, op, rid, code, errMsg, echoU, echoV string, id uint64,
		queueNS, execNS, retryAfterNS int64, degraded bool, width, full, maxSend int, shape []byte) {
		sh := shapeReader(shape)
		p := &pendingReq{pc: &serverConn{maxSend: maxSend}, proto: ProtocolVersion,
			id: id, rid: rid, op: op, queueNS: queueNS}
		out := &outcome{code: code, errMsg: errMsg, execNS: execNS, retryAfter: time.Duration(retryAfterNS),
			degraded: degraded, width: width, full: full}
		out.paths = sh.paths()
		if b := sh.next(); b&0x80 != 0 {
			out.results = make([]BatchItemV2, b%4)
			for i := range out.results {
				flags := sh.next()
				if flags&1 != 0 {
					out.results[i].Paths = sh.paths()
				}
				if flags&2 != 0 {
					out.results[i].Err = errMsg
				}
				p.echo = append(p.echo, [2]string{echoU, echoV})
			}
		}
		if got, want := srv.encodeV1(nil, p, out), encodeV1Reflect(srv, p, out); !bytes.Equal(got, want) {
			t.Fatalf("encodeV1 = %q\nwant      %q", got, want)
		}
	})
}

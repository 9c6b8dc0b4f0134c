package pathsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hhc"
)

// decodeResponseJSON is DecodeResponse as it was before the scanner: one
// json.Unmarshal, then the version check. It is the oracle the scanner
// must match.
func decodeResponseJSON(payload []byte) (Response, error) {
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return Response{}, fmt.Errorf("pathsvc: decode response: %w", err)
	}
	if resp.Ver != ProtocolVersion {
		return resp, fmt.Errorf("pathsvc: unsupported protocol version %d (speak %d)", resp.Ver, ProtocolVersion)
	}
	return resp, nil
}

// checkDecodeMatchesJSON decodes payload both ways and fails t unless
// the answers and errors agree (so the scanner accepts nothing
// encoding/json rejects) and the result survives the payload's buffer
// being reused. It reports whether the scanner accepted.
func checkDecodeMatchesJSON(t *testing.T, payload []byte) bool {
	t.Helper()
	want, wantErr := decodeResponseJSON(payload)
	buf := bytes.Clone(payload)
	_, scanned := scanResponseV1(buf)
	got, gotErr := DecodeResponse(buf)
	for i := range buf {
		buf[i] = 'X' // the client's read buffer holds the next frame now
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeResponse(%q) error = %v, want %v", payload, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeResponse(%q) =\n%#v\nwant\n%#v", payload, got, want)
	}
	return scanned
}

// goldenV1Answers returns the payloads of the committed v1 wire golden.
func goldenV1Answers(tb testing.TB) [][]byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "wire_golden", "v1.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if _, payload, ok := strings.Cut(line, " "); ok {
			out = append(out, []byte(payload))
		}
	}
	return out
}

// encodedAnswer returns encodeV1's paths answer for the container
// between two nodes of srv's topology drawn from a and b; route answers
// keep one path, and degraded ones keep width paths of m+1. ok is false
// for a pair the construction does not serve.
func encodedAnswer(srv *Server, a, b uint64, id uint64, rid string, queueNS, execNS int64,
	route, degraded bool, width int) ([]byte, bool) {
	m := srv.g.M()
	mask := uint64(1)<<(uint(1)<<uint(m)) - 1 // 2^m cube bits; all 64 at m=6
	u := hhc.Node{X: a & mask, Y: uint8(a>>58) % uint8(1<<m)}
	v := hhc.Node{X: b & mask, Y: uint8(b>>58) % uint8(1<<m)}
	paths, err := srv.cache.Paths(u, v, core.Options{})
	if err != nil || len(paths) == 0 {
		return nil, false
	}
	p := &pendingReq{pc: &serverConn{maxSend: DefaultMaxFrame}, proto: ProtocolVersion,
		id: id, rid: rid, op: OpPaths, queueNS: queueNS}
	out := &outcome{paths: paths, execNS: execNS, width: len(paths), full: len(paths)}
	switch {
	case route:
		p.op = OpRoute
		out.paths, out.width, out.full = paths[:1], 1, m+1
	case degraded:
		k := 1 + (width%len(paths)+len(paths))%len(paths)
		out.paths, out.width, out.degraded = paths[:k], k, true
	}
	return srv.encodeV1(nil, p, out), true
}

// FuzzDecodeResponseMatchesJSON pins the client's v1 scanner to
// encoding/json from both sides. On any bytes, DecodeResponse returns
// what json.Unmarshal and the version check return. And every paths
// or route answer encodeV1 writes, at any m, with any id, verbatim rid,
// timing, width or degradation, is taken by the scanner, so this
// server's answers never reach the reflective fallback.
func FuzzDecodeResponseMatchesJSON(f *testing.F) {
	for _, payload := range goldenV1Answers(f) {
		f.Add(payload, uint8(3), uint64(0), uint64(0xff), uint64(1), "", int64(0), int64(0), false, false, 0)
	}
	for _, s := range []string{
		`{"ver":1, "id":3,"op":"ping"}`,
		` {"ver":1,"id":3,"op":"ping"}`,
		`{"ver":1,"id":3,"op":"ping"}` + "\n",
		`{"ver":1,"id":3,"op":"paths","paths":[ ["0x0:0"]]}`,
		`{"id":3,"ver":1,"op":"ping"}`,
		`{"ver":1,"id":3,"op":"ping","ver":2}`,
		`{"ver":1,"id":3,"op":"ping","op":"info"}`,
		`{"VER":1,"id":3,"op":"ping"}`,
		`{"ver":1,"id":3,"Op":"ping"}`,
		`{"ver":1,"id":3,"op":"paths","coalesced":true,"paths":[["0x0:0"]]}`,
		`{"ver":1,"id":3,"op":"ping","rid":"a\"b"}`,
		`{"ver":1,"id":3,"op":"ping","rid":"<r>"}`,
		`{"ver":1,"id":3,"op":"ping","rid":"<r>&"}`,
		`{"ver":1,"id":3,"op":"ping","queue_ns":-0}`,
		`{"ver":1,"id":3,"op":"ping","queue_ns":-7}`,
		`{"ver":1,"id":1e3,"op":"ping"}`,
		`{"ver":1.0,"id":3,"op":"ping"}`,
		`{"ver":01,"id":3,"op":"ping"}`,
		`{"ver":1,"id":003,"op":"ping"}`,
		`{"ver":1,"id":0,"op":"ping"}`,
		`{"ver":1,"id":18446744073709551615,"op":"ping"}`,
		`{"ver":1,"id":18446744073709551616,"op":"ping"}`,
		`{"ver":1,"id":-1,"op":"ping"}`,
		`{"ver":1,"id":3,"op":"ping","exec_ns":-9223372036854775808}`,
		`{"ver":1,"id":3,"op":"ping","exec_ns":9223372036854775808}`,
		`{"ver":1,"id":3,"op":"paths","paths":[]}`,
		`{"ver":1,"id":3,"op":"paths","paths":[[]]}`,
		`{"ver":1,"id":3,"op":"paths","paths":[["0x0:0"],[]]}`,
		`{"ver":1,"id":3,"op":"paths","paths":null}`,
		`{"ver":1,"id":3,"op":"paths","paths":[["",""],["]","[,"]]}`,
		`{"ver":1,"id":3,"op":"ping","rid":null}`,
		`{"ver":1,"id":3,"op":"ping","degraded":false}`,
		`{"ver":1,"id":3,"op":"ping","degraded":tru}`,
		`{"ver":1,"id":3,"op":"ping","bogus":1}`,
		`{"ver":1,"id":3,"op":"batch","results":[]}`,
		`{"ver":1,"id":3,"op":"ping"}{}`,
		`{"ver":1,"id":3,"op":"ping",}`,
		`{"ver":2,"id":3,"op":"ping"}`,
		`{}`,
		`{`,
		`[1]`,
		`null`,
		"{\"ver\":1,\"id\":3,\"op\":\"p\xffng\"}",
	} {
		f.Add([]byte(s), uint8(1), uint64(0), uint64(1), uint64(0), "", int64(0), int64(0), false, false, 0)
	}
	f.Add([]byte{}, uint8(5), uint64(0x2a), uint64(0x91|3<<58), uint64(1<<63), "req-1", int64(1500), int64(-2500), false, true, 2)
	f.Add([]byte{}, uint8(6), ^uint64(0), uint64(1), ^uint64(0), "r", int64(-1<<63), int64(1<<63-1), true, false, 0)
	f.Add([]byte{}, uint8(2), uint64(3), uint64(12), uint64(9), "<esc>", int64(0), int64(0), false, false, 0)

	var servers [hhc.MaxM + 1]*Server
	for m := hhc.MinM; m <= hhc.MaxM; m++ {
		srv, err := New(Config{M: m})
		if err != nil {
			f.Fatal(err)
		}
		servers[m] = srv
	}
	f.Fuzz(func(t *testing.T, payload []byte, m uint8, a, b, id uint64, rid string,
		queueNS, execNS int64, route, degraded bool, width int) {
		checkDecodeMatchesJSON(t, payload)
		srv := servers[hhc.MinM+int(m)%hhc.MaxM]
		answer, ok := encodedAnswer(srv, a, b, id, rid, queueNS, execNS, route, degraded, width)
		if !ok {
			return
		}
		if !checkDecodeMatchesJSON(t, answer) && jsonVerbatim(rid) {
			t.Fatalf("scanner refused encodeV1's answer %q", answer)
		}
	})
}

// DecodeResponseAllocBudget is the allocation count of decoding one
// paths answer as this server writes it: the paths array's text, the
// []string backing every path, the [][]string of paths, and the rid. The
// op is the package's constant. The count does not grow with the
// container; encoding/json spent more than one allocation per node (164
// on the m=5 answer below, 116 nodes).
const DecodeResponseAllocBudget = 4

// TestDecodeResponseAllocBudget: a paths answer from the server's own
// encoder decodes in DecodeResponseAllocBudget allocations at every m,
// however many nodes its container holds.
func TestDecodeResponseAllocBudget(t *testing.T) {
	for _, m := range []int{2, 5, 6} {
		srv, err := New(Config{M: m})
		if err != nil {
			t.Fatal(err)
		}
		answer, ok := encodedAnswer(srv, 0x2a, 0x91|1<<58, 42, "req-42", 1500, 2500, false, false, 0)
		if !ok {
			t.Fatalf("m=%d: no container", m)
		}
		var resp Response
		allocs := testing.AllocsPerRun(100, func() {
			if resp, err = DecodeResponse(answer); err != nil {
				t.Fatal(err)
			}
		})
		nodes := 0
		for _, path := range resp.Paths {
			nodes += len(path)
		}
		if allocs > DecodeResponseAllocBudget {
			t.Errorf("m=%d: DecodeResponse of a %d-node answer allocates %.1f times, want <= %d",
				m, nodes, allocs, DecodeResponseAllocBudget)
		}
		if want, _ := decodeResponseJSON(answer); !reflect.DeepEqual(resp, want) {
			t.Errorf("m=%d: DecodeResponse = %+v, want %+v", m, resp, want)
		}
	}
}

// BenchmarkDecodeResponse decodes one m=5 paths answer as this server
// writes it, the v1 client's per-answer work.
func BenchmarkDecodeResponse(b *testing.B) {
	srv, err := New(Config{M: 5})
	if err != nil {
		b.Fatal(err)
	}
	answer, _ := encodedAnswer(srv, 0x2a, 0x91|1<<58, 42, "req-42", 1500, 2500, false, false, 0)
	b.SetBytes(int64(len(answer)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResponse(answer); err != nil {
			b.Fatal(err)
		}
	}
}

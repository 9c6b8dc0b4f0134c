package pathsvc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/hhc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_golden from the current server")

// goldenStep is one raw request frame of the wire-golden script.
type goldenStep struct {
	name    string
	payload []byte
}

// goldenScript is a fixed server configuration plus the frames sent to it,
// one at a time, each answered before the next goes out.
type goldenScript struct {
	cfg   Config
	steps []goldenStep
}

func v1Step(name, js string) goldenStep { return goldenStep{name, []byte(js)} }

func v2Step(name string, req RequestV2) goldenStep {
	return goldenStep{name, AppendRequestV2(nil, &req)}
}

func goldenScripts() map[string][]goldenScript {
	src, dst := hhc.Node{X: 0x0, Y: 0}, hhc.Node{X: 0xff, Y: 7}
	same := hhc.Node{X: 0x3, Y: 2}
	far := hhc.Node{X: 0x100, Y: 0} // outside m=3's 2^8 cube addresses
	// Every container path leaves 0x0:0 through one of its m+1 = 4
	// neighbours: faulting one drops one path, faulting all four drops all.
	nb := []hhc.Node{{X: 0x0, Y: 1}, {X: 0x0, Y: 2}, {X: 0x0, Y: 4}, {X: 0x1, Y: 0}}
	oversize := make([]NodePair, 16)
	oversizeV1 := make([]string, 16)
	for i := range oversize {
		oversize[i] = NodePair{U: src, V: dst}
		oversizeV1[i] = `["0x0:0","0xff:7"]`
	}
	v2Hdr := AppendRequestV2(nil, &RequestV2{ID: 40, Op: OpCodePing})
	badOp := bytes.Clone(v2Hdr)
	badOp[2] = 9
	badVer := bytes.Clone(v2Hdr)
	badVer[1] = 7
	paths := AppendRequestV2(nil, &RequestV2{ID: 42, Op: OpCodePaths, U: src, V: dst})

	return map[string][]goldenScript{
		"v1": {
			{cfg: Config{M: 3}, steps: []goldenStep{
				v1Step("ping", `{"ver":1,"id":1,"op":"ping"}`),
				v1Step("info", `{"ver":1,"id":2,"op":"info"}`),
				v1Step("paths", `{"ver":1,"id":3,"op":"paths","u":"0x0:0","v":"0xff:7"}`),
				v1Step("paths-max2", `{"ver":1,"id":4,"op":"paths","u":"0x0:0","v":"0xff:7","max_paths":2,"timeout_ms":60000}`),
				v1Step("route-fault", `{"ver":1,"id":5,"op":"route","u":"0x0:0","v":"0xff:7","faults":["0x0:1"]}`),
				v1Step("route-all-faulty", `{"ver":1,"id":6,"op":"route","u":"0x0:0","v":"0xff:7","faults":["0x0:1","0x0:2","0x0:4","0x1:0"]}`),
				v1Step("route-faulty-source", `{"ver":1,"id":7,"op":"route","u":"0x0:0","v":"0xff:7","faults":["0x0:0"]}`),
				v1Step("route-bad-fault", `{"ver":1,"id":8,"op":"route","u":"0x0:0","v":"0xff:7","faults":["zz"]}`),
				v1Step("batch", `{"ver":1,"id":9,"op":"batch","pairs":[["0x0:0","0xff:7"],["bogus","0xff:7"],["0x3:2","0x3:2"]]}`),
				v1Step("batch-empty", `{"ver":1,"id":10,"op":"batch"}`),
				v1Step("unknown-op", `{"ver":1,"id":11,"op":"nope"}`),
				v1Step("malformed-address", `{"ver":1,"id":12,"op":"paths","u":"nonsense","v":"0xff:7"}`),
				v1Step("out-of-range", `{"ver":1,"id":13,"op":"paths","u":"0x100:0","v":"0xff:7"}`),
				v1Step("rid-ping", `{"ver":1,"id":14,"op":"ping","rid":"golden-rid"}`),
				v1Step("rid-paths", `{"ver":1,"id":15,"op":"paths","u":"0x0:0","v":"0xff:7","max_paths":1,"rid":"golden-rid-2"}`),
				v1Step("rid-error", `{"ver":1,"id":16,"op":"nope","rid":"golden-rid-3"}`),
				v1Step("bad-version", `{"ver":7,"id":17,"op":"ping","rid":"r"}`),
				v1Step("undecodable", `{"ver":1,"id":18,"op":`),
			}},
			{cfg: Config{M: 3, MaxFrame: 2048}, steps: []goldenStep{
				v1Step("oversize-batch", `{"ver":1,"id":19,"op":"batch","pairs":[`+strings.Join(oversizeV1, ",")+`]}`),
			}},
			{cfg: Config{M: 3, MaxFrame: 200}, steps: []goldenStep{
				v1Step("oversize-paths", `{"ver":1,"id":20,"op":"paths","u":"0x0:0","v":"0xff:7","rid":"big"}`),
			}},
		},
		"v2": {
			{cfg: Config{M: 3}, steps: []goldenStep{
				v2Step("ping", RequestV2{ID: 21, Op: OpCodePing}),
				v2Step("info", RequestV2{ID: 22, Op: OpCodeInfo}),
				v2Step("paths", RequestV2{ID: 23, Op: OpCodePaths, U: src, V: dst}),
				v2Step("paths-max2", RequestV2{ID: 24, Op: OpCodePaths, U: src, V: dst, MaxPaths: 2, TimeoutNS: int64(time.Minute)}),
				v2Step("route-fault", RequestV2{ID: 25, Op: OpCodeRoute, U: src, V: dst, Faults: nb[:1]}),
				v2Step("route-all-faulty", RequestV2{ID: 26, Op: OpCodeRoute, U: src, V: dst, Faults: nb}),
				v2Step("route-faulty-source", RequestV2{ID: 27, Op: OpCodeRoute, U: src, V: dst, Faults: []hhc.Node{src}}),
				v2Step("route-bad-fault", RequestV2{ID: 28, Op: OpCodeRoute, U: src, V: dst, Faults: []hhc.Node{far}}),
				v2Step("batch", RequestV2{ID: 29, Op: OpCodeBatch, Pairs: []NodePair{{src, dst}, {far, dst}, {same, same}}}),
				v2Step("batch-empty", RequestV2{ID: 30, Op: OpCodeBatch}),
				{"unknown-op", badOp},
				{"malformed-address", paths[:len(paths)-4]},
				v2Step("out-of-range", RequestV2{ID: 31, Op: OpCodePaths, U: far, V: dst}),
				v2Step("rid-ping", RequestV2{ID: 32, Op: OpCodePing, RID: "golden-rid"}),
				v2Step("rid-paths", RequestV2{ID: 33, Op: OpCodePaths, U: src, V: dst, MaxPaths: 1, RID: "golden-rid-2"}),
				v2Step("rid-error", RequestV2{ID: 34, Op: OpCodePaths, U: far, V: dst, RID: "golden-rid-3"}),
				{"bad-version", badVer},
			}},
			{cfg: Config{M: 3, MaxFrame: 2048}, steps: []goldenStep{
				v2Step("oversize-batch", RequestV2{ID: 35, Op: OpCodeBatch, Pairs: oversize}),
			}},
			{cfg: Config{M: 3, MaxFrame: 200}, steps: []goldenStep{
				v2Step("oversize-paths", RequestV2{ID: 36, Op: OpCodePaths, U: src, V: dst, RID: "big"}),
			}},
		},
	}
}

var (
	// v1 timing keys follow "op" (and "rid"), so they always carry a
	// leading comma.
	v1TimingKeys = regexp.MustCompile(`,"(queue_ns|exec_ns)":\d+`)
	// The frame-limit refusal quotes the oversized payload length, which
	// includes the (dropped) timing digits.
	v1FrameSize = regexp.MustCompile(`: \d+ \\u003e (\d+) bytes`)
)

// normalizeGolden renders one response payload in its golden form with the
// run-dependent server timing removed: v1 drops the queue_ns/exec_ns keys,
// v2 zeroes the two header fields.
func normalizeGolden(proto string, payload []byte) string {
	if proto == "v1" {
		s := v1TimingKeys.ReplaceAllString(string(payload), "")
		return v1FrameSize.ReplaceAllString(s, `: N \u003e $1 bytes`)
	}
	b := bytes.Clone(payload)
	if len(b) >= 29 && b[0] == frameMagicV2 {
		clear(b[13:29])
	}
	return hex.EncodeToString(b)
}

// TestWireGolden pins the server's response bytes for a fixed script of
// raw request frames on each protocol: every op, the error taxonomy, rid
// echo, and both frame-limit refusals. Regenerate with
// `go test -run TestWireGolden -update-golden ./internal/pathsvc` only
// for an intended wire change.
func TestWireGolden(t *testing.T) {
	for proto, scripts := range goldenScripts() {
		t.Run(proto, func(t *testing.T) {
			var got strings.Builder
			for _, sc := range scripts {
				_, addr := startServer(t, sc.cfg)
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range sc.steps {
					_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
					frame := binary.BigEndian.AppendUint32(nil, uint32(len(st.payload)))
					if _, err := conn.Write(append(frame, st.payload...)); err != nil {
						t.Fatalf("%s: write: %v", st.name, err)
					}
					resp, err := ReadFrame(conn, DefaultMaxFrame)
					if err != nil {
						t.Fatalf("%s: read: %v", st.name, err)
					}
					fmt.Fprintf(&got, "%s %s\n", st.name, normalizeGolden(proto, resp))
				}
				conn.Close()
			}
			path := filepath.Join("testdata", "wire_golden", proto+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to record)", err)
			}
			gotLines := strings.Split(got.String(), "\n")
			wantLines := strings.Split(string(want), "\n")
			for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
				var g, w string
				if i < len(gotLines) {
					g = gotLines[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
				}
			}
		})
	}
}

package pathsvc

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hhc"
)

// The v1 answer layout, written and read in one place: encodeV1 is the
// server's only v1 answer encoder, and scanResponseV1 is the client's
// fast decoder for exactly what encodeV1 writes. A change to one must be
// a change to the other; FuzzDecodeResponseMatchesJSON pins both.

// encodeV1 appends the JSON frame payload answering p: the only server
// code that renders nodes as text, and the only one that sees the
// client's batch pair text again (echoed verbatim per item). It writes
// Response's fields in struct order under the same omitempty rules, so
// the bytes are exactly json.Marshal's, without building a Response or
// a string per node. The reserved Coalesced field is never set.
//
//hhc:hotpath
func (s *Server) encodeV1(buf []byte, p *pendingReq, out *outcome) []byte {
	start := len(buf)
	buf = append(buf, `{"ver":`...)
	buf = strconv.AppendInt(buf, ProtocolVersion, 10)
	buf = append(buf, `,"id":`...)
	buf = strconv.AppendUint(buf, p.id, 10)
	buf = append(buf, `,"op":`...)
	buf = appendJSONString(buf, p.op)
	buf = appendStringField(buf, `,"rid":`, p.rid)
	buf = appendIntField(buf, `,"queue_ns":`, p.queueNS)
	buf = appendIntField(buf, `,"exec_ns":`, out.execNS)
	buf = appendStringField(buf, `,"code":`, out.code)
	buf = appendStringField(buf, `,"err":`, out.errMsg)
	buf = appendIntField(buf, `,"retry_after_ms":`, wireTimeoutMS(out.retryAfter))
	if len(out.paths) > 0 {
		buf = append(buf, `,"paths":`...)
		buf = appendPathsV1(buf, out.paths)
	}
	if len(out.results) > 0 {
		buf = append(buf, `,"results":[`...)
		for i := range out.results {
			item := &out.results[i]
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"u":`...)
			buf = appendJSONString(buf, p.echo[i][0])
			buf = append(buf, `,"v":`...)
			buf = appendJSONString(buf, p.echo[i][1])
			if len(item.Paths) > 0 {
				buf = append(buf, `,"paths":`...)
				buf = appendPathsV1(buf, item.Paths)
			}
			buf = appendStringField(buf, `,"err":`, item.Err)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	if out.degraded {
		buf = append(buf, `,"degraded":true`...)
	}
	buf = appendIntField(buf, `,"width":`, int64(out.width))
	buf = appendIntField(buf, `,"full":`, int64(out.full))
	if p.op == OpInfo {
		buf = appendIntField(buf, `,"m":`, int64(s.g.M()))
		buf = appendIntField(buf, `,"ver_max":`, MaxProtocolVersion)
	}
	buf = append(buf, '}')
	if size := len(buf) - start; size > p.pc.maxSend {
		// See encodeV2: the outgrown answer is replaced by a small typed error.
		buf = frameLimitV1(buf[:start], p, size)
	}
	return buf
}

// frameLimitV1 appends the small typed error that replaces a v1 answer
// of size bytes outgrowing the connection's frame limit.
func frameLimitV1(buf []byte, p *pendingReq, size int) []byte {
	payload, _ := json.Marshal(&Response{Ver: ProtocolVersion, ID: p.id, Op: p.op, Code: CodeInternal,
		Err: fmt.Sprintf("%v: %d > %d bytes", ErrFrameTooLarge, size, p.pc.maxSend)})
	return append(buf, payload...)
}

// appendIntField appends key and v unless v is 0, as omitempty does.
//
//hhc:hotpath
func appendIntField(buf []byte, key string, v int64) []byte {
	if v == 0 {
		return buf
	}
	buf = append(buf, key...)
	return strconv.AppendInt(buf, v, 10)
}

// appendStringField appends key and s quoted unless s is empty, as
// omitempty does.
//
//hhc:hotpath
func appendStringField(buf []byte, key, s string) []byte {
	if s == "" {
		return buf
	}
	buf = append(buf, key...)
	return appendJSONString(buf, s)
}

// appendPathsV1 appends paths as a JSON array of arrays of node strings.
// A node's "0x…:…" text never needs escaping.
//
//hhc:hotpath
func appendPathsV1(buf []byte, paths [][]hhc.Node) []byte {
	buf = append(buf, '[')
	for i, path := range paths {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, n := range path {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '"')
			buf = hhc.AppendNodeWire(buf, n)
			buf = append(buf, '"')
		}
		buf = append(buf, ']')
	}
	return append(buf, ']')
}

// appendJSONString appends s quoted exactly as encoding/json quotes it.
// A string of printable ASCII free of the bytes that encoder escapes
// (the quote, the backslash, and < > & for HTML) is copied as is;
// anything else takes the reflective encoder.
//
//hhc:hotpath
func appendJSONString(buf []byte, s string) []byte {
	if !jsonVerbatim(s) {
		return appendJSONStringSlow(buf, s)
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendJSONStringSlow is appendJSONString's arm for strings that need
// escaping: control bytes, non-ASCII text (U+2028 and U+2029 escaped,
// invalid UTF-8 replaced) and the escaped ASCII bytes.
func appendJSONStringSlow(buf []byte, s string) []byte {
	enc, _ := json.Marshal(s)
	return append(buf, enc...)
}

// jsonStringLen is len(appendJSONString(nil, s)), computed without
// copying s when it needs no escaping.
func jsonStringLen(s string) int {
	if jsonVerbatim(s) {
		return len(s) + 2
	}
	return len(appendJSONStringSlow(nil, s))
}

// jsonVerbatim reports whether encoding/json would quote s without
// changing a byte.
func jsonVerbatim(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// v1Keys are the JSON keys scanResponseV1 accepts, in Response's field
// order. coalesced and results are absent: an answer carrying either
// takes encoding/json.
var v1Keys = [...]string{"ver", "id", "op", "rid", "queue_ns", "exec_ns", "code", "err",
	"retry_after_ms", "paths", "degraded", "width", "full", "m", "ver_max"}

// scanResponseV1 decodes payload when it has exactly the layout encodeV1
// writes: one object of Response's fields in struct order, each at most
// once, with no whitespace, strings of printable ASCII without '"' or
// '\', integers without a leading zero or "-0", and neither coalesced
// nor results. At the first byte outside that layout it reports false,
// and the caller decodes with encoding/json instead; whatever it accepts,
// encoding/json decodes to the same Response. Nothing in the result
// aliases payload: the paths array is copied into one string, every node
// is a substring of it, one []string backs every path and one [][]string
// holds them, so an answer costs a fixed few allocations at any size.
//
//hhc:hotpath
func scanResponseV1(payload []byte) (resp Response, ok bool) {
	s := v1Scanner{b: payload}
	if !s.eat('{') {
		return Response{}, false
	}
	next := 0 // v1Keys[next:] may still follow
	for {
		k := s.key(next)
		if k < 0 {
			return Response{}, false
		}
		next = k + 1
		switch v1Keys[k] {
		case "ver":
			resp.Ver, ok = s.int()
		case "id":
			resp.ID, ok = s.uint()
		case "op":
			resp.Op, ok = s.text()
		case "rid":
			resp.RID, ok = s.text()
		case "queue_ns":
			resp.QueueNS, ok = s.int64()
		case "exec_ns":
			resp.ExecNS, ok = s.int64()
		case "code":
			resp.Code, ok = s.text()
		case "err":
			resp.Err, ok = s.text()
		case "retry_after_ms":
			resp.RetryAfterMS, ok = s.int64()
		case "paths":
			resp.Paths, ok = s.paths()
		case "degraded":
			ok = s.lit("true") // encodeV1 omits a false one
			resp.Degraded = ok
		case "width":
			resp.Width, ok = s.int()
		case "full":
			resp.Full, ok = s.int()
		case "m":
			resp.M, ok = s.int()
		case "ver_max":
			resp.VerMax, ok = s.int()
		}
		if !ok {
			return Response{}, false
		}
		if s.eat('}') {
			if s.i != len(s.b) {
				return Response{}, false
			}
			return resp, true
		}
		if !s.eat(',') {
			return Response{}, false
		}
	}
}

// v1Scanner walks one v1 payload for scanResponseV1. Every method
// reports false, leaving i wherever it stopped, on a byte it does not
// expect.
type v1Scanner struct {
	b []byte
	i int
}

// eat consumes c if it is the next byte.
//
//hhc:hotpath
func (s *v1Scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a verbatim string and returns its contents, which alias
// the payload.
//
//hhc:hotpath
func (s *v1Scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// key consumes `"name":` and returns name's index in v1Keys, or -1 if
// name is not one of v1Keys[from:].
//
//hhc:hotpath
func (s *v1Scanner) key(from int) int {
	name, ok := s.str()
	if !ok || !s.eat(':') {
		return -1
	}
	for k := from; k < len(v1Keys); k++ {
		if string(name) == v1Keys[k] {
			return k
		}
	}
	return -1
}

// text consumes a verbatim string and returns it as a new string, or as
// the package's own constant when it names an op or a response code.
//
//hhc:hotpath
func (s *v1Scanner) text() (string, bool) {
	b, ok := s.str()
	if !ok {
		return "", false
	}
	switch string(b) {
	case OpPaths:
		return OpPaths, true
	case OpRoute:
		return OpRoute, true
	case OpBatch:
		return OpBatch, true
	case OpInfo:
		return OpInfo, true
	case OpPing:
		return OpPing, true
	case CodeBadRequest:
		return CodeBadRequest, true
	case CodeOverload:
		return CodeOverload, true
	case CodeDeadline:
		return CodeDeadline, true
	case CodeShutdown:
		return CodeShutdown, true
	case CodeUnroutable:
		return CodeUnroutable, true
	case CodeInternal:
		return CodeInternal, true
	}
	return string(b), true
}

// uint consumes a non-negative integer without a leading zero that fits
// a uint64.
//
//hhc:hotpath
func (s *v1Scanner) uint() (uint64, bool) {
	start := s.i
	var v uint64
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if s.i == start || (s.b[start] == '0' && s.i > start+1) {
		return 0, false
	}
	return v, true
}

// int64 consumes an integer that fits an int64; "-0" is refused.
//
//hhc:hotpath
func (s *v1Scanner) int64() (int64, bool) {
	neg := s.eat('-')
	u, ok := s.uint()
	switch {
	case !ok:
		return 0, false
	case !neg && u <= 1<<63-1:
		return int64(u), true
	case neg && u != 0 && u <= 1<<63:
		return int64(-u), true
	}
	return 0, false
}

// int consumes an integer that fits an int.
//
//hhc:hotpath
func (s *v1Scanner) int() (int, bool) {
	v, ok := s.int64()
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// lit consumes the literal w if it comes next.
//
//hhc:hotpath
func (s *v1Scanner) lit(w string) bool {
	if len(s.b)-s.i < len(w) || string(s.b[s.i:s.i+len(w)]) != w {
		return false
	}
	s.i += len(w)
	return true
}

// paths consumes a non-empty array of non-empty arrays of verbatim
// strings. A first pass checks the layout and counts nodes and paths; the
// array's text is then copied once and cut into nodes on a second pass,
// which needs no checks: the copy is exactly what the first pass read.
//
//hhc:hotpath
func (s *v1Scanner) paths() ([][]string, bool) {
	start := s.i
	if !s.eat('[') {
		return nil, false
	}
	nodes, npaths := 0, 0
	for {
		if !s.eat('[') {
			return nil, false
		}
		for {
			if _, ok := s.str(); !ok {
				return nil, false
			}
			nodes++
			if s.eat(']') {
				break
			}
			if !s.eat(',') {
				return nil, false
			}
		}
		npaths++
		if s.eat(']') {
			break
		}
		if !s.eat(',') {
			return nil, false
		}
	}
	text := string(s.b[start:s.i])
	flat := make([]string, 0, nodes)
	paths := make([][]string, 0, npaths)
	// text is [["n","n"],["n"]]: each path opens with '[' and each later
	// node with ','; the node runs from past its opening quote to the next
	// quote. A path's slice is capped at its own end, so appending to it
	// cannot overwrite the next path's nodes.
	for i := 1; i < len(text)-1; i += 2 { // past the path's ']' and ',' (or the final ']')
		first := len(flat)
		for text[i] != ']' {
			i += 2 // past '[' or ',' and the opening quote
			j := i + strings.IndexByte(text[i:], '"')
			flat = append(flat, text[i:j])
			i = j + 1
		}
		paths = append(paths, flat[first:len(flat):len(flat)])
	}
	return paths, true
}

// Binary wire protocol v2.
//
// v1 frames JSON; v2 frames a fixed-layout binary encoding of the same
// requests and responses, sharing the outer framing (4-byte big-endian
// length prefix). The two are distinguished per frame by the first payload
// byte: JSON payloads always open with '{' (0x7b), v2 payloads open with
// the magic byte 0xf2 — so one connection can carry both, the server
// answers each request in the encoding it arrived in, and version
// negotiation reduces to reading ver_max off a v1 OpInfo response.
//
// Node addresses are uint64 cube word + uint8 processor, so they pack into
// 9 fixed bytes with no varints and no text; a full v2 request header is
// 24 bytes where the v1 JSON equivalent spends that on `{"ver":1,"id":`.
// Encoders are append-style ([]byte in, []byte out) and decoders fill
// caller-owned structs reusing their slice capacity, which is what lets
// the serve path run at a fixed per-request allocation budget
// (TestServeV2AllocBudget) with pooled frame buffers and a single
// conn.Write per frame.
//
// Layout (all multi-byte integers big-endian, node = X uint64 + Y uint8):
//
//	request:  f2 | ver | op | flags | id u64 | timeout_ns u64 | max_paths u32
//	          paths: u v | route: u v nfaults u32 faults | batch: n u32 pairs
//	          [rid: len u16 bytes]                         (flags bit 0)
//	          [origin: len u16 bytes]                      (flags bit 5)
//	          flags bit 4 marks a peer-forwarded query (hop guard, no tail)
//	response: f2 | ver | op | flags | id u64 | status u8 | queue_ns u64
//	          | exec_ns u64 | retry_ns u64 | width u16 | full u16 | m u8
//	          status OK: paths/route: npaths u32 {nlen u32, nodes}
//	                     batch: n u32 {u v, errlen u16 err, npaths u32 {…}}
//	          [err: len u16 bytes]                         (flags bit 3)
//	          [rid: len u16 bytes]                         (flags bit 0)
package pathsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/hhc"
)

// ProtocolV2 is the binary wire version.
const ProtocolV2 = 2

// frameMagicV2 is the first payload byte of every v2 frame. It can never
// open a JSON payload, so framing-level protocol detection is one byte.
const frameMagicV2 = 0xf2

// Op codes of the v2 header (v1 spells ops as strings).
const (
	OpCodePaths uint8 = 1
	OpCodeBatch uint8 = 2
	OpCodeRoute uint8 = 3
	OpCodeInfo  uint8 = 4
	OpCodePing  uint8 = 5
)

// Status codes of the v2 response header, mirroring the v1 Code* strings.
const (
	StatusOK         uint8 = 0
	StatusBadRequest uint8 = 1
	StatusOverload   uint8 = 2
	StatusDeadline   uint8 = 3
	StatusShutdown   uint8 = 4
	StatusUnroutable uint8 = 5
	StatusInternal   uint8 = 6
)

// Header flag bits.
const (
	flagRID       = 1 << 0 // request & response: rid tail present
	flagDegraded  = 1 << 1 // response: container truncated by load shedding
	flagCoalesced = 1 << 2 // response: reserved; older servers set it on a shared in-flight answer
	flagErr       = 1 << 3 // response: error-detail tail present
	flagForwarded = 1 << 4 // request: relayed peer-to-peer once already (hop guard)
	flagOrigin    = 1 << 5 // request: origin-peer tail present (forwarded trace context)
)

// Fixed header lengths.
const (
	reqV2HeaderLen  = 24
	respV2HeaderLen = 42
	nodeWireLen     = 9
)

// ErrMalformedV2 is the root of every v2 decode failure; the wrapped
// sentinels below are preallocated so hot-path decoders never format.
var (
	ErrMalformedV2 = errors.New("pathsvc: malformed v2 payload")

	errV2Short    = fmt.Errorf("%w: truncated", ErrMalformedV2)
	errV2Magic    = fmt.Errorf("%w: bad magic byte", ErrMalformedV2)
	errV2Version  = fmt.Errorf("%w: unsupported version", ErrMalformedV2)
	errV2Op       = fmt.Errorf("%w: unknown op code", ErrMalformedV2)
	errV2Count    = fmt.Errorf("%w: element count exceeds payload", ErrMalformedV2)
	errV2Trailing = fmt.Errorf("%w: trailing bytes", ErrMalformedV2)
)

// opCodeOf maps a v1 op string onto its v2 code.
func opCodeOf(op string) (uint8, bool) {
	switch op {
	case OpPaths:
		return OpCodePaths, true
	case OpBatch:
		return OpCodeBatch, true
	case OpRoute:
		return OpCodeRoute, true
	case OpInfo:
		return OpCodeInfo, true
	case OpPing:
		return OpCodePing, true
	}
	return 0, false
}

// opNameOf maps a v2 op code onto its v1 string.
func opNameOf(code uint8) (string, bool) {
	switch code {
	case OpCodePaths:
		return OpPaths, true
	case OpCodeBatch:
		return OpBatch, true
	case OpCodeRoute:
		return OpRoute, true
	case OpCodeInfo:
		return OpInfo, true
	case OpCodePing:
		return OpPing, true
	}
	return "", false
}

// statusOf maps a v1 code string onto its v2 status byte.
func statusOf(code string) uint8 {
	switch code {
	case CodeOK:
		return StatusOK
	case CodeBadRequest:
		return StatusBadRequest
	case CodeOverload:
		return StatusOverload
	case CodeDeadline:
		return StatusDeadline
	case CodeShutdown:
		return StatusShutdown
	case CodeUnroutable:
		return StatusUnroutable
	default:
		return StatusInternal
	}
}

// codeOfStatus maps a v2 status byte back onto the v1 code string.
func codeOfStatus(st uint8) string {
	switch st {
	case StatusOK:
		return CodeOK
	case StatusBadRequest:
		return CodeBadRequest
	case StatusOverload:
		return CodeOverload
	case StatusDeadline:
		return CodeDeadline
	case StatusShutdown:
		return CodeShutdown
	case StatusUnroutable:
		return CodeUnroutable
	default:
		return CodeInternal
	}
}

// NodePair is one [source, destination] endpoint pair of a v2 batch.
type NodePair struct {
	U, V hhc.Node
}

// RequestV2 is the node-native form of one v2 request. Clients reuse one
// instance per connection or goroutine; DecodeRequestV2 refills a reused
// instance without allocating once its slices have grown.
type RequestV2 struct {
	ID uint64
	// Op is a v2 op code (OpCodePaths, …).
	Op  uint8
	RID string
	// U and V are the endpoints (OpCodePaths, OpCodeRoute).
	U, V hhc.Node
	// Faults lists nodes OpCodeRoute must avoid.
	Faults []hhc.Node
	// Pairs are the endpoint pairs of OpCodeBatch.
	Pairs []NodePair
	// MaxPaths, when > 0, truncates the returned container.
	MaxPaths int
	// TimeoutNS, when > 0, caps this request's end-to-end time in
	// nanoseconds (v1 carries milliseconds; v2 keeps full resolution).
	TimeoutNS int64
	// Forwarded marks a query relayed peer-to-peer inside a cluster (the
	// hop guard, v1's Fwd): the receiving peer must answer locally and
	// never forward again.
	Forwarded bool
	// Origin names the forwarding peer on a Forwarded request (the
	// requester's advertised -self address), so the owner's request trace
	// records which peer the query came from and fleet-level stitching can
	// join the two trees. Empty on direct client traffic.
	Origin string
}

// BatchItemV2 is one per-pair outcome inside a v2 batch response.
type BatchItemV2 struct {
	U, V  hhc.Node
	Paths [][]hhc.Node
	Err   string
}

// ResponseV2 is the node-native form of one v2 response. DecodeResponseV2
// refills a reused instance, recycling the Paths/Results backing arrays.
type ResponseV2 struct {
	ID           uint64
	Op           uint8 // v2 op code
	RID          string
	Code         uint8 // v2 status byte (StatusOK, …)
	Err          string
	QueueNS      int64
	ExecNS       int64
	RetryAfterNS int64
	Coalesced    bool // reserved: never set by this server (see Response.Coalesced)
	Degraded     bool
	Width, Full  int
	M            int
	Paths        [][]hhc.Node
	Results      []BatchItemV2
}

// CodeString renders the v1 spelling of the status byte (for error
// taxonomies shared across protocol versions).
func (r *ResponseV2) CodeString() string { return codeOfStatus(r.Code) }

// appendNode packs one node address (8-byte X, 1-byte Y).
//
//hhc:hotpath
func appendNode(buf []byte, u hhc.Node) []byte {
	var w [nodeWireLen]byte
	binary.BigEndian.PutUint64(w[:8], u.X)
	w[8] = u.Y
	return append(buf, w[:]...)
}

// AppendRequestV2 appends the v2 encoding of req to buf and returns the
// extended slice. RIDs longer than 64 KiB are silently dropped (the field
// is a trace correlation hint, not data).
//
//hhc:hotpath
func AppendRequestV2(buf []byte, req *RequestV2) []byte {
	var flags uint8
	rid, origin := req.RID, req.Origin
	if len(rid) > 0xffff {
		rid = ""
	}
	if len(origin) > 0xffff {
		origin = ""
	}
	if rid != "" {
		flags |= flagRID
	}
	if origin != "" {
		flags |= flagOrigin
	}
	if req.Forwarded {
		flags |= flagForwarded
	}
	var hdr [reqV2HeaderLen]byte
	hdr[0] = frameMagicV2
	hdr[1] = ProtocolV2
	hdr[2] = req.Op
	hdr[3] = flags
	binary.BigEndian.PutUint64(hdr[4:12], req.ID)
	binary.BigEndian.PutUint64(hdr[12:20], uint64(req.TimeoutNS))
	binary.BigEndian.PutUint32(hdr[20:24], uint32(req.MaxPaths))
	buf = append(buf, hdr[:]...)
	switch req.Op {
	case OpCodePaths:
		buf = appendNode(buf, req.U)
		buf = appendNode(buf, req.V)
	case OpCodeRoute:
		buf = appendNode(buf, req.U)
		buf = appendNode(buf, req.V)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(req.Faults)))
		for _, f := range req.Faults {
			buf = appendNode(buf, f)
		}
	case OpCodeBatch:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(req.Pairs)))
		for _, p := range req.Pairs {
			buf = appendNode(buf, p.U)
			buf = appendNode(buf, p.V)
		}
	}
	if flags&flagRID != 0 {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(rid)))
		buf = append(buf, rid...)
	}
	if flags&flagOrigin != 0 {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(origin)))
		buf = append(buf, origin...)
	}
	return buf
}

// AppendResponseV2 appends the v2 encoding of resp to buf and returns the
// extended slice. Bodies are encoded only for StatusOK; error details ride
// the tail. Oversized RID/Err tails (> 64 KiB) are dropped.
//
//hhc:hotpath
func AppendResponseV2(buf []byte, resp *ResponseV2) []byte {
	var flags uint8
	rid, errStr := resp.RID, resp.Err
	if len(rid) > 0xffff {
		rid = ""
	}
	if len(errStr) > 0xffff {
		errStr = errStr[:0xffff]
	}
	if rid != "" {
		flags |= flagRID
	}
	if errStr != "" {
		flags |= flagErr
	}
	if resp.Degraded {
		flags |= flagDegraded
	}
	if resp.Coalesced {
		flags |= flagCoalesced
	}
	var hdr [respV2HeaderLen]byte
	hdr[0] = frameMagicV2
	hdr[1] = ProtocolV2
	hdr[2] = resp.Op
	hdr[3] = flags
	binary.BigEndian.PutUint64(hdr[4:12], resp.ID)
	hdr[12] = resp.Code
	binary.BigEndian.PutUint64(hdr[13:21], uint64(resp.QueueNS))
	binary.BigEndian.PutUint64(hdr[21:29], uint64(resp.ExecNS))
	binary.BigEndian.PutUint64(hdr[29:37], uint64(resp.RetryAfterNS))
	binary.BigEndian.PutUint16(hdr[37:39], uint16(resp.Width))
	binary.BigEndian.PutUint16(hdr[39:41], uint16(resp.Full))
	hdr[41] = uint8(resp.M)
	buf = append(buf, hdr[:]...)
	if resp.Code == StatusOK {
		switch resp.Op {
		case OpCodePaths, OpCodeRoute:
			buf = appendPathsV2(buf, resp.Paths)
		case OpCodeBatch:
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(resp.Results)))
			for i := range resp.Results {
				item := &resp.Results[i]
				buf = appendNode(buf, item.U)
				buf = appendNode(buf, item.V)
				buf = binary.BigEndian.AppendUint16(buf, uint16(len(item.Err)))
				buf = append(buf, item.Err...)
				buf = appendPathsV2(buf, item.Paths)
			}
		}
	}
	if flags&flagErr != 0 {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(errStr)))
		buf = append(buf, errStr...)
	}
	if flags&flagRID != 0 {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(rid)))
		buf = append(buf, rid...)
	}
	return buf
}

//hhc:hotpath
func appendPathsV2(buf []byte, paths [][]hhc.Node) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(paths)))
	for _, p := range paths {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(p)))
		for _, n := range p {
			buf = appendNode(buf, n)
		}
	}
	return buf
}

// batchItemSizeV2 is the exact encoded footprint of one batch item, used
// by the server to refuse frame-overflowing batch replies with a typed
// error instead of an undeliverable frame.
func batchItemSizeV2(item *BatchItemV2) int {
	size := 2*nodeWireLen + 2 + len(item.Err) + 4
	for _, p := range item.Paths {
		size += 4 + nodeWireLen*len(p)
	}
	return size
}

// v2cur is a bounds-checked cursor over one v2 payload. Every read method
// reports underflow through ok; decoders bail on the first failure with a
// preallocated sentinel.
type v2cur struct {
	b   []byte
	off int
}

//hhc:hotpath
func (c *v2cur) u8() (uint8, bool) {
	if c.off+1 > len(c.b) {
		return 0, false
	}
	v := c.b[c.off]
	c.off++
	return v, true
}

//hhc:hotpath
func (c *v2cur) u16() (uint16, bool) {
	if c.off+2 > len(c.b) {
		return 0, false
	}
	v := binary.BigEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v, true
}

//hhc:hotpath
func (c *v2cur) u32() (uint32, bool) {
	if c.off+4 > len(c.b) {
		return 0, false
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, true
}

//hhc:hotpath
func (c *v2cur) u64() (uint64, bool) {
	if c.off+8 > len(c.b) {
		return 0, false
	}
	v := binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, true
}

//hhc:hotpath
func (c *v2cur) node() (hhc.Node, bool) {
	if c.off+nodeWireLen > len(c.b) {
		return hhc.Node{}, false
	}
	n := hhc.Node{X: binary.BigEndian.Uint64(c.b[c.off:]), Y: c.b[c.off+8]}
	c.off += nodeWireLen
	return n, true
}

// str reads a u16-length-prefixed string (copied out of the payload, which
// the caller reuses for the next frame).
//
//hhc:hotpath
func (c *v2cur) str() (string, bool) {
	n, ok := c.u16()
	if !ok || c.off+int(n) > len(c.b) {
		return "", false
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s, true
}

// count reads a u32 element count and validates it against the bytes left
// at elemSize each, so a hostile count cannot drive a huge preallocation.
//
//hhc:hotpath
func (c *v2cur) count(elemSize int) (int, bool) {
	n, ok := c.u32()
	if !ok {
		return 0, false
	}
	if uint64(n)*uint64(elemSize) > uint64(len(c.b)-c.off) {
		return 0, false
	}
	return int(n), true
}

// header checks magic and version; returns the op, flags, and id.
//
//hhc:hotpath
func (c *v2cur) header() (op, flags uint8, id uint64, err error) {
	magic, ok := c.u8()
	if !ok {
		return 0, 0, 0, errV2Short
	}
	if magic != frameMagicV2 {
		return 0, 0, 0, errV2Magic
	}
	ver, ok := c.u8()
	if !ok {
		return 0, 0, 0, errV2Short
	}
	if ver != ProtocolV2 {
		return 0, 0, 0, errV2Version
	}
	op, _ = c.u8()
	flags, ok = c.u8()
	if !ok {
		return 0, 0, 0, errV2Short
	}
	id, ok = c.u64()
	if !ok {
		return 0, 0, 0, errV2Short
	}
	if _, k := opNameOf(op); !k {
		return 0, 0, 0, errV2Op
	}
	return op, flags, id, nil
}

// DecodeRequestV2 parses one v2 request payload into req, reusing its
// slice capacity. On error req holds whatever decoded before the failure
// (the ID in particular, when at least the header arrived, so the server
// can still address its refusal).
//
//hhc:hotpath
func DecodeRequestV2(payload []byte, req *RequestV2) error {
	req.RID = ""
	req.Origin = ""
	req.Faults = req.Faults[:0]
	req.Pairs = req.Pairs[:0]
	c := v2cur{b: payload}
	op, flags, id, err := c.header()
	req.ID = id
	req.Op = op
	if err != nil {
		return err
	}
	req.Forwarded = flags&flagForwarded != 0
	tns, ok := c.u64()
	if !ok {
		return errV2Short
	}
	req.TimeoutNS = int64(tns)
	mp, ok := c.u32()
	if !ok {
		return errV2Short
	}
	req.MaxPaths = int(mp)
	switch op {
	case OpCodePaths, OpCodeRoute:
		if req.U, ok = c.node(); !ok {
			return errV2Short
		}
		if req.V, ok = c.node(); !ok {
			return errV2Short
		}
		if op == OpCodeRoute {
			n, ok := c.count(nodeWireLen)
			if !ok {
				return errV2Count
			}
			for i := 0; i < n; i++ {
				f, ok := c.node()
				if !ok {
					return errV2Short
				}
				req.Faults = append(req.Faults, f)
			}
		}
	case OpCodeBatch:
		n, ok := c.count(2 * nodeWireLen)
		if !ok {
			return errV2Count
		}
		for i := 0; i < n; i++ {
			var p NodePair
			if p.U, ok = c.node(); !ok {
				return errV2Short
			}
			if p.V, ok = c.node(); !ok {
				return errV2Short
			}
			req.Pairs = append(req.Pairs, p)
		}
	}
	if flags&flagRID != 0 {
		if req.RID, ok = c.str(); !ok {
			return errV2Short
		}
	}
	if flags&flagOrigin != 0 {
		if req.Origin, ok = c.str(); !ok {
			return errV2Short
		}
	}
	if c.off != len(payload) {
		return errV2Trailing
	}
	return nil
}

// DecodeResponseV2 parses one v2 response payload into resp, reusing the
// backing arrays of resp.Paths and resp.Results across calls.
//
//hhc:hotpath
func DecodeResponseV2(payload []byte, resp *ResponseV2) error {
	resp.RID, resp.Err = "", ""
	resp.Paths = resp.Paths[:0]
	resp.Results = resp.Results[:0]
	c := v2cur{b: payload}
	op, flags, id, err := c.header()
	resp.ID = id
	resp.Op = op
	if err != nil {
		return err
	}
	st, ok := c.u8()
	if !ok {
		return errV2Short
	}
	resp.Code = st
	qns, ok := c.u64()
	if !ok {
		return errV2Short
	}
	ens, ok := c.u64()
	if !ok {
		return errV2Short
	}
	rns, ok := c.u64()
	if !ok {
		return errV2Short
	}
	resp.QueueNS, resp.ExecNS, resp.RetryAfterNS = int64(qns), int64(ens), int64(rns)
	w, ok := c.u16()
	if !ok {
		return errV2Short
	}
	f, ok := c.u16()
	if !ok {
		return errV2Short
	}
	m, ok := c.u8()
	if !ok {
		return errV2Short
	}
	resp.Width, resp.Full, resp.M = int(w), int(f), int(m)
	resp.Degraded = flags&flagDegraded != 0
	resp.Coalesced = flags&flagCoalesced != 0
	if st == StatusOK {
		switch op {
		case OpCodePaths, OpCodeRoute:
			if resp.Paths, ok = c.paths(resp.Paths); !ok {
				return errV2Count
			}
		case OpCodeBatch:
			n, ok := c.count(2*nodeWireLen + 2 + 4)
			if !ok {
				return errV2Count
			}
			results := resp.Results
			if cap(results) < n {
				grown := make([]BatchItemV2, n)
				copy(grown, results[:cap(results)])
				results = grown
			} else {
				results = results[:n]
			}
			for i := 0; i < n; i++ {
				item := &results[i]
				if item.U, ok = c.node(); !ok {
					return errV2Short
				}
				if item.V, ok = c.node(); !ok {
					return errV2Short
				}
				if item.Err, ok = c.str(); !ok {
					return errV2Short
				}
				if item.Paths, ok = c.paths(item.Paths[:0]); !ok {
					return errV2Count
				}
			}
			resp.Results = results
		}
	}
	if flags&flagErr != 0 {
		if resp.Err, ok = c.str(); !ok {
			return errV2Short
		}
	}
	if flags&flagRID != 0 {
		if resp.RID, ok = c.str(); !ok {
			return errV2Short
		}
	}
	if c.off != len(payload) {
		return errV2Trailing
	}
	return nil
}

// paths decodes a path list into dst (length 0), reusing both the outer
// backing array and the inner per-path slices it still holds beyond len.
//
//hhc:hotpath
func (c *v2cur) paths(dst [][]hhc.Node) ([][]hhc.Node, bool) {
	n, ok := c.count(4)
	if !ok {
		return dst, false
	}
	if cap(dst) < n {
		grown := make([][]hhc.Node, n)
		copy(grown, dst[:cap(dst)])
		dst = grown
	} else {
		dst = dst[:n]
	}
	for i := 0; i < n; i++ {
		l, ok := c.count(nodeWireLen)
		if !ok {
			return dst, false
		}
		p := dst[i][:0]
		for j := 0; j < l; j++ {
			u, ok := c.node()
			if !ok {
				return dst, false
			}
			p = append(p, u)
		}
		dst[i] = p
	}
	return dst, true
}

// frameBufPool recycles encode buffers: reserve 4 prefix bytes, append the
// payload, patch the prefix, write once, put back. Steady state this makes
// frame encoding allocation-free on both the server's send path and the
// client's.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// appendFramePrefix reserves the 4-byte length prefix at the start of an
// empty frame buffer.
//
//hhc:hotpath
func appendFramePrefix(buf []byte) []byte {
	return append(buf[:0], 0, 0, 0, 0)
}

// patchFramePrefix writes the payload length into the reserved prefix and
// reports the payload size.
//
//hhc:hotpath
func patchFramePrefix(buf []byte) int {
	n := len(buf) - 4
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	return n
}

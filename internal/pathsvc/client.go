package pathsvc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/hhc"
)

// Client-side liveness errors.
var (
	// ErrClientBroken marks a poisoned client: a transport or protocol
	// error left the framing stream in an unknown state, so every
	// subsequent call fails fast instead of misparsing stale frames.
	// Dial again (or use Reconn) to recover.
	ErrClientBroken = errors.New("pathsvc: client connection broken")
	// ErrClientTimeout reports that the client-side wait budget (the
	// request timeout plus DialOptions.TimeoutSlack, or IOTimeout for
	// requests without one) expired before the response arrived. The
	// connection stays usable: the late response is dropped by id when it
	// eventually lands.
	ErrClientTimeout = errors.New("pathsvc: timed out waiting for response")
)

// Client-side defaults.
const (
	// DefaultIOTimeout bounds dialing, each frame write, and the response
	// wait of requests that carry no timeout of their own.
	DefaultIOTimeout = 10 * time.Second
	// DefaultTimeoutSlack is added to a request's own timeout to form the
	// client-side wait budget (server-side expiry answers arrive a little
	// after the deadline itself, so the slack covers delivery).
	DefaultTimeoutSlack = 1 * time.Second
)

// DialOptions tunes DialWith. The zero value negotiates the protocol
// version and applies the Default* timeouts.
type DialOptions struct {
	// Proto pins the wire version: 1 or 2. 0 negotiates the highest both
	// sides speak — one v1 OpInfo round-trip at dial time reads the
	// server's ver_max (servers predating negotiation omit it, which
	// reads as v1-only).
	Proto int
	// IOTimeout: see DefaultIOTimeout (0 selects it).
	IOTimeout time.Duration
	// TimeoutSlack: see DefaultTimeoutSlack (0 selects it).
	TimeoutSlack time.Duration
	// MaxFrame bounds wire frames (0 = DefaultMaxFrame).
	MaxFrame int
}

func (o *DialOptions) fill() {
	if o.IOTimeout <= 0 {
		o.IOTimeout = DefaultIOTimeout
	}
	if o.TimeoutSlack <= 0 {
		o.TimeoutSlack = DefaultTimeoutSlack
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
}

// ServerError is a non-OK response surfaced as an error. It unwraps to the
// typed sentinel matching its code, so errors.Is(err, ErrOverload) and
// friends work on the client side exactly as on the server side.
type ServerError struct {
	Code       string
	Msg        string
	RetryAfter time.Duration
}

// Error renders the code and server-side detail.
func (e *ServerError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("pathsvc: server answered %q", e.Code)
	}
	return e.Msg
}

// Unwrap maps the wire code back onto the package's typed errors.
func (e *ServerError) Unwrap() error {
	switch e.Code {
	case CodeOverload:
		return ErrOverload
	case CodeDeadline:
		return ErrDeadlineExceeded
	case CodeShutdown:
		return ErrShutdown
	default:
		return nil
	}
}

// call is one in-flight request. done is buffered so delivery never blocks
// the reader; exactly one party delivers or reclaims it (whoever removes
// the id from Client.pending owns it), which is what makes pooling safe:
// a reclaimed call's channel is provably empty.
type call struct {
	done  chan struct{}
	resp  *Response   // v1 result target; nil for v2 calls
	resp2 *ResponseV2 // v2 decode target (caller-owned); nil for v1 calls
	err   error       // set before done when the call failed
}

var callPool = sync.Pool{New: func() any {
	return &call{done: make(chan struct{}, 1)}
}}

func newCall() *call {
	ca := callPool.Get().(*call)
	ca.resp = nil
	ca.resp2 = nil
	ca.err = nil
	return ca
}

// timerPool recycles wait timers across calls (a pipelined client arms one
// per request).
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// Client is a pipelined pathsvc connection: any number of requests may be
// in flight at once (the server answers out of order), a reader goroutine
// demuxes responses back to their callers by correlation id, and every
// wait is bounded — a hung or partitioned server surfaces as
// ErrClientTimeout instead of blocking forever.
//
// Any transport or protocol error poisons the client (the framing stream
// is in an unknown state); subsequent calls fail fast with ErrClientBroken
// and the caller redials. A per-request timeout does NOT poison: the
// stream is still framed correctly, and the late response is dropped when
// it arrives.
type Client struct {
	conn net.Conn
	opts DialOptions

	proto int // wire version used by the convenience methods and DoV2

	wmu sync.Mutex // serializes frame writes

	// readerDone is closed when the reader goroutine exits (it does so
	// exactly once, when the connection dies); Close waits on it so no
	// demuxing survives the handle.
	readerDone chan struct{}

	mu      sync.Mutex
	nextID  uint64           // last issued correlation id; guarded by mu
	pending map[uint64]*call // guarded by mu
	broken  error            // sticky poison, wraps ErrClientBroken; guarded by mu
}

// Dial connects to a pathsvc server, speaking v1 (the universally
// understood version). Use DialWith to negotiate v2.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{Proto: ProtocolVersion})
}

// DialWith connects with explicit options, negotiating the protocol
// version when opts.Proto is 0.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	opts.fill()
	conn, err := net.DialTimeout("tcp", addr, opts.IOTimeout)
	if err != nil {
		return nil, fmt.Errorf("pathsvc: dial %s: %w", addr, err)
	}
	c := newClient(conn, opts)
	if err := c.negotiate(); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection (the tests drive net.Pipe) as
// a v1 client with default timeouts.
func NewClient(conn net.Conn) *Client {
	return newClient(conn, DialOptions{Proto: ProtocolVersion,
		IOTimeout: DefaultIOTimeout, TimeoutSlack: DefaultTimeoutSlack, MaxFrame: DefaultMaxFrame})
}

// NewClientWith wraps an established connection with explicit options;
// opts.Proto == 0 negotiates, costing one Info round-trip.
func NewClientWith(conn net.Conn, opts DialOptions) (*Client, error) {
	opts.fill()
	c := newClient(conn, opts)
	if err := c.negotiate(); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

func newClient(conn net.Conn, opts DialOptions) *Client {
	c := &Client{
		conn:       conn,
		opts:       opts,
		proto:      opts.Proto,
		readerDone: make(chan struct{}),
		pending:    make(map[uint64]*call),
	}
	go c.reader()
	return c
}

// negotiate resolves Proto 0 against the server's advertised ver_max.
func (c *Client) negotiate() error {
	switch c.opts.Proto {
	case ProtocolVersion, ProtocolV2:
		return nil
	case 0:
	default:
		return fmt.Errorf("pathsvc: unknown protocol version %d (speak 1..%d)", c.opts.Proto, MaxProtocolVersion)
	}
	resp, err := c.Info()
	if err != nil {
		return fmt.Errorf("pathsvc: version negotiation: %w", err)
	}
	if resp.VerMax >= ProtocolV2 {
		c.proto = ProtocolV2
	} else {
		c.proto = ProtocolVersion
	}
	return nil
}

// Proto reports the wire version in effect (after negotiation).
func (c *Client) Proto() int { return c.proto }

// Close closes the underlying connection and waits for the reader
// goroutine to exit — by return, every in-flight call has been drained
// and poisoned, and nothing of the client is still running.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// fail poisons the client once, closes the connection, and drains every
// pending call with the sticky broken error. It returns that error.
func (c *Client) fail(cause error) error {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = fmt.Errorf("%w: %w", ErrClientBroken, cause)
	}
	err := c.broken
	var drained []*call
	for id, ca := range c.pending {
		delete(c.pending, id)
		drained = append(drained, ca)
	}
	c.mu.Unlock()
	_ = c.conn.Close()
	for _, ca := range drained {
		ca.err = err
		ca.done <- struct{}{}
	}
	return err
}

// failWith poisons the client and delivers the broken error to one call
// the reader already claimed.
func (c *Client) failWith(ca *call, cause error) {
	err := c.fail(cause)
	ca.err = err
	ca.done <- struct{}{}
}

// claim removes id from the pending table. unknown reports an id this
// client never issued — a protocol violation (or a v1-only server JSON-
// rejecting a binary frame as id 0). A nil call with unknown == false is
// a late response to a timed-out request: droppable.
func (c *Client) claim(id uint64) (ca *call, unknown bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id == 0 || id > c.nextID {
		return nil, true
	}
	if ca = c.pending[id]; ca != nil {
		delete(c.pending, id)
	}
	return ca, false
}

// reader demuxes response frames to their callers until the connection
// dies. It never blocks on delivery (done channels are buffered) and it
// reuses one read buffer across frames.
func (c *Client) reader() {
	defer close(c.readerDone)
	br := bufio.NewReader(c.conn)
	var rbuf []byte
	for {
		payload, err := ReadFrameInto(br, rbuf, c.opts.MaxFrame)
		if err != nil {
			c.fail(err)
			return
		}
		rbuf = payload
		// Both encodings carry the correlation id up front: v2 at a fixed
		// header offset, v1 only after a full JSON decode.
		v2 := payload[0] == frameMagicV2
		var resp Response
		var id uint64
		if v2 {
			if len(payload) < respV2HeaderLen {
				c.fail(errV2Short)
				return
			}
			id = binary.BigEndian.Uint64(payload[4:12])
		} else {
			if resp, err = DecodeResponse(payload); err != nil {
				c.fail(err)
				return
			}
			id = resp.ID
		}
		ca, unknown := c.claim(id)
		if unknown {
			err = fmt.Errorf("pathsvc: response for id %d, which was never issued", id)
			if !v2 {
				// The detail matters here: a v1-only server answers a binary
				// frame it cannot parse with a JSON bad_request carrying id 0,
				// which is how a forced-v2 client learns its mistake.
				err = fmt.Errorf("%w (code %q: %s); does the server speak protocol v%d?", err, resp.Code, resp.Err, c.proto)
			}
			c.fail(err)
			return
		}
		if ca == nil {
			continue // late answer to a timed-out call
		}
		if v2 != (ca.resp2 != nil) {
			msg := "pathsvc: JSON response to a binary request"
			if v2 {
				msg = "pathsvc: binary response to a JSON request"
			}
			c.failWith(ca, errors.New(msg))
			return
		}
		if v2 {
			err = DecodeResponseV2(payload, ca.resp2)
		} else {
			*ca.resp = resp
		}
		if err != nil {
			c.failWith(ca, err)
			return
		}
		ca.done <- struct{}{}
	}
}

// register allocates the next correlation id and parks a call under it,
// with the caller's v1 or v2 response as its result target.
func (c *Client) register(resp *Response, resp2 *ResponseV2) (*call, uint64, error) {
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return nil, 0, err
	}
	c.nextID++
	id := c.nextID
	ca := newCall()
	ca.resp, ca.resp2 = resp, resp2
	c.pending[id] = ca
	c.mu.Unlock()
	return ca, id, nil
}

// reclaim removes id if the reader has not claimed it yet; true means the
// caller now owns the call and no delivery will ever happen.
func (c *Client) reclaim(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[id]; !ok {
		return false
	}
	delete(c.pending, id)
	return true
}

// writeFrame sends one already-framed buffer under the write lock with the
// IO deadline armed, poisoning the client on failure (bytes may have hit
// the wire, so the stream state is unknown).
func (c *Client) writeFrame(buf []byte) error {
	c.wmu.Lock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.opts.IOTimeout))
	_, err := c.conn.Write(buf)
	c.wmu.Unlock()
	if err != nil {
		return c.fail(err)
	}
	return nil
}

// await waits out one call with the given request timeout (0 = none; the
// IO default applies). On expiry the call is reclaimed and the connection
// stays healthy.
func (c *Client) await(ca *call, id uint64, reqTimeout time.Duration) error {
	budget := c.opts.IOTimeout
	if reqTimeout > 0 {
		budget = reqTimeout + c.opts.TimeoutSlack
	}
	t := getTimer(budget)
	select {
	case <-ca.done:
		putTimer(t)
	case <-t.C:
		putTimer(t)
		if c.reclaim(id) {
			// The reader never saw this call: its channel is empty, pooling
			// is safe, and the eventual response will be dropped by id.
			callPool.Put(ca)
			return fmt.Errorf("%w: no response within %v", ErrClientTimeout, budget)
		}
		// The reader claimed it concurrently; delivery is imminent.
		<-ca.done
	}
	return nil
}

// Do sends one v1 (JSON) request and waits for its response. The protocol
// version and correlation id are filled in; a response that is not CodeOK
// is returned alongside a *ServerError carrying the code. Do always
// encodes v1 regardless of the negotiated version — the server answers
// each frame in the encoding it arrived in — which is what keeps old-style
// callers working on an upgraded connection.
func (c *Client) Do(req Request) (*Response, error) {
	resp := new(Response)
	ca, id, err := c.register(resp, nil)
	if err != nil {
		return nil, err
	}
	req.Ver, req.ID = ProtocolVersion, id
	// The JSON path allocates anyway; the binary path is the
	// allocation-free one.
	payload, err := json.Marshal(&req)
	if err != nil {
		err = fmt.Errorf("pathsvc: encode frame: %w", err)
	}
	bufp := frameBufPool.Get().(*[]byte)
	buf := append(appendFramePrefix(*bufp), payload...)
	if err := c.roundTrip(ca, id, bufp, buf, err, time.Duration(req.TimeoutMS)*time.Millisecond); err != nil {
		return nil, err
	}
	return resp, serverError(resp.Code, resp.Err, time.Duration(resp.RetryAfterMS)*time.Millisecond)
}

// DoV2 sends one binary request and decodes the response into resp, which
// the caller owns and may reuse across calls (its slice capacity is
// recycled — the steady-state round trip allocates nothing on the client).
// req.ID is assigned here. Requires a connection speaking v2.
func (c *Client) DoV2(req *RequestV2, resp *ResponseV2) error {
	if c.proto < ProtocolV2 {
		return fmt.Errorf("pathsvc: connection speaks v%d; DoV2 needs v2 (dial with Proto 0 or 2)", c.proto)
	}
	ca, id, err := c.register(nil, resp)
	if err != nil {
		return err
	}
	req.ID = id
	bufp := frameBufPool.Get().(*[]byte)
	buf := AppendRequestV2(appendFramePrefix(*bufp), req)
	if err := c.roundTrip(ca, id, bufp, buf, nil, time.Duration(req.TimeoutNS)); err != nil {
		return err
	}
	return serverError(codeOfStatus(resp.Code), resp.Err, time.Duration(resp.RetryAfterNS))
}

// roundTrip is the shared tail of Do and DoV2: frame the registered call's
// encoded request (buf, in the pooled *bufp, released once written), write
// it, and await the answer. encErr reports a request that could not be
// encoded; like an oversized one it fails the call without touching the
// wire, so the connection stays healthy.
func (c *Client) roundTrip(ca *call, id uint64, bufp *[]byte, buf []byte, encErr error, timeout time.Duration) error {
	if n := patchFramePrefix(buf); encErr == nil && n > c.opts.MaxFrame {
		encErr = fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, n, c.opts.MaxFrame)
	}
	err := encErr
	if err == nil {
		err = c.writeFrame(buf)
	}
	*bufp = buf[:0]
	frameBufPool.Put(bufp)
	switch {
	case encErr != nil:
		// Nothing hit the wire; the connection is still healthy.
		c.reclaim(id)
		callPool.Put(ca)
		return encErr
	case err != nil:
		return err // writeFrame poisoned the client and drained the call
	}
	if err := c.await(ca, id, timeout); err != nil {
		return err
	}
	err = ca.err
	callPool.Put(ca)
	return err
}

// serverError surfaces a non-OK response code as a *ServerError (nil for
// CodeOK).
func serverError(code, msg string, retryAfter time.Duration) error {
	if code == CodeOK {
		return nil
	}
	return &ServerError{Code: code, Msg: msg, RetryAfter: retryAfter}
}

// Paths requests the disjoint-path container between u and v ("x:y" form).
// maxPaths > 0 truncates the answer; timeout > 0 sets a per-request
// deadline (v1 wire granularity is 1ms — sub-millisecond values round up
// rather than silently meaning "server default").
func (c *Client) Paths(u, v string, maxPaths int, timeout time.Duration) (*Response, error) {
	return c.Do(Request{Op: OpPaths, U: u, V: v, MaxPaths: maxPaths, TimeoutMS: wireTimeoutMS(timeout)})
}

// Route requests one shortest container path from u to v avoiding faults.
func (c *Client) Route(u, v string, faults []string, timeout time.Duration) (*Response, error) {
	return c.Do(Request{Op: OpRoute, U: u, V: v, Faults: faults, TimeoutMS: wireTimeoutMS(timeout)})
}

// Batch requests containers for every [source, destination] pair.
func (c *Client) Batch(pairs [][2]string, timeout time.Duration) (*Response, error) {
	return c.Do(Request{Op: OpBatch, Pairs: pairs, TimeoutMS: wireTimeoutMS(timeout)})
}

// Info reports the served topology (always over v1: it doubles as the
// negotiation probe).
func (c *Client) Info() (*Response, error) {
	return c.Do(Request{Op: OpInfo})
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.Do(Request{Op: OpPing})
	return err
}

// PathsV2 is the node-native container query: no address formatting or
// parsing on either side. resp is caller-owned and reusable.
func (c *Client) PathsV2(u, v hhc.Node, maxPaths int, timeout time.Duration, resp *ResponseV2) error {
	req := RequestV2{Op: OpCodePaths, U: u, V: v, MaxPaths: maxPaths, TimeoutNS: int64(timeout)}
	return c.DoV2(&req, resp)
}

// wireTimeoutMS renders a timeout at the v1 wire's millisecond
// granularity. Sub-millisecond values round up to 1ms: truncating to 0
// would silently select the server default, turning the tightest deadline
// a caller can ask for into the loosest. (v2 carries nanoseconds and has
// no such cliff.)
func wireTimeoutMS(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64((d + time.Millisecond - 1) / time.Millisecond)
}

// Reconn is a self-healing client handle for long-running drivers: it
// hands out a live Client and redials after poison (ErrClientBroken) or
// explicit invalidation. It does not retry requests itself — the caller
// decides which failures are retryable.
type Reconn struct {
	addr string
	opts DialOptions

	mu sync.Mutex
	c  *Client // guarded by mu
}

// NewReconn prepares a reconnecting handle (no connection is made until
// the first Client call).
func NewReconn(addr string, opts DialOptions) *Reconn {
	return &Reconn{addr: addr, opts: opts}
}

// Client returns the current live client, dialing if there is none.
func (r *Reconn) Client() (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c != nil {
		return r.c, nil
	}
	c, err := DialWith(r.addr, r.opts)
	if err != nil {
		return nil, err
	}
	r.c = c
	return c, nil
}

// Invalidate discards c if it is still the current client (a stale handle
// someone else already replaced is left alone) and closes it.
func (r *Reconn) Invalidate(c *Client) {
	r.mu.Lock()
	if r.c == c {
		r.c = nil
	}
	r.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// Close closes the current client, if any.
func (r *Reconn) Close() {
	r.mu.Lock()
	c := r.c
	r.c = nil
	r.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

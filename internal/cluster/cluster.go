package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/hhc"
	"repro/internal/pathsvc"
	"repro/internal/stats"
)

// Membership errors. ErrBadPeers wraps every peer-list validation failure
// so callers (hhcd's flag validation) can classify without string matching.
var (
	ErrBadPeers = errors.New("cluster: bad peer list")
	// ErrPeerDown reports a forward refused because the owner is inside its
	// failure cooldown; the server answers locally instead.
	ErrPeerDown = errors.New("cluster: owner peer is down")
)

// Defaults for Config zero values.
const (
	// DefaultFailThreshold is how many consecutive transport failures mark
	// a peer down.
	DefaultFailThreshold = 3
	// DefaultCooldown is how long a down peer is left unprobed before the
	// next forward retries it.
	DefaultCooldown = 500 * time.Millisecond
)

// ParsePeers splits and validates a comma-separated peer list
// ("host1:port,host2:port,..."). Every failure wraps ErrBadPeers.
func ParsePeers(spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("%w: empty peer list", ErrBadPeers)
	}
	parts := strings.Split(spec, ",")
	peers := make([]string, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("%w: empty peer entry in %q", ErrBadPeers, spec)
		}
		host, port, ok := splitHostPort(p)
		if !ok || host == "" || port == "" {
			return nil, fmt.Errorf("%w: peer %q is not host:port", ErrBadPeers, p)
		}
		if seen[p] {
			return nil, fmt.Errorf("%w: duplicate peer %q", ErrBadPeers, p)
		}
		seen[p] = true
		peers = append(peers, p)
	}
	return peers, nil
}

// splitHostPort splits on the last colon (IPv6-bracket tolerant enough for
// a static config check; the real validation is the dial).
func splitHostPort(s string) (host, port string, ok bool) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// Config describes one peer's view of the cluster. Every peer must be
// started with the identical Peers list (same order); Self is this
// process's index in it.
type Config struct {
	// Peers is the ordered address list of every cluster member, this
	// process included.
	Peers []string
	// Self is this process's index into Peers.
	Self int
	// Dial tunes the peer-to-peer forwarding connections. Proto is forced
	// to v2 — forwards always travel the binary wire.
	Dial pathsvc.DialOptions
	// FailThreshold is how many consecutive transport failures mark a peer
	// down (0 = DefaultFailThreshold).
	FailThreshold int
	// Cooldown is how long a down peer stays unprobed
	// (0 = DefaultCooldown).
	Cooldown time.Duration
}

// peer is the health-tracked forwarding handle for one remote member.
// All mutable state is atomic: the forward path is called from many
// forward goroutines at once and must not serialize on a lock.
type peer struct {
	addr string
	rc   *pathsvc.Reconn

	fails     atomic.Int64 // consecutive transport failures
	downUntil atomic.Int64 // unix nanos; 0 = up

	forwarded stats.Counter // forwards answered through this peer
	errs      stats.Counter // forwards this peer failed
}

// down reports whether the peer is inside its failure cooldown.
func (p *peer) down(now time.Time) bool {
	return now.UnixNano() < p.downUntil.Load()
}

// Cluster implements pathsvc.Forwarder over a static membership: a
// deterministic ring decides ownership, one self-healing pipelined v2
// client per remote peer carries the forwards, and a consecutive-failure
// breaker keeps a dead owner from stalling every non-owned query for a
// dial timeout each.
type Cluster struct {
	cfg  Config
	ring *Ring
	// peers is indexed like cfg.Peers; the self slot is nil (a process
	// never forwards to itself).
	peers []*peer
}

// New validates cfg and builds the ring and the per-peer client pool. No
// connection is dialed until the first forward needs it.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Peers) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 peers, have %d", ErrBadPeers, len(cfg.Peers))
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Peers) {
		return nil, fmt.Errorf("%w: self index %d out of range [0,%d)", ErrBadPeers, cfg.Self, len(cfg.Peers))
	}
	seen := make(map[string]bool, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if seen[p] {
			return nil, fmt.Errorf("%w: duplicate peer %q", ErrBadPeers, p)
		}
		seen[p] = true
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	cfg.Dial.Proto = pathsvc.ProtocolV2
	c := &Cluster{
		cfg:   cfg,
		ring:  NewRing(cfg.Peers, DefaultVNodes),
		peers: make([]*peer, len(cfg.Peers)),
	}
	for i, addr := range cfg.Peers {
		if i == cfg.Self {
			continue
		}
		c.peers[i] = &peer{addr: addr, rc: pathsvc.NewReconn(addr, cfg.Dial)}
	}
	return c, nil
}

// Self returns this process's own address.
func (c *Cluster) Self() string { return c.cfg.Peers[c.cfg.Self] }

// Ring returns the membership's consistent-hash ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// Owns reports whether this process owns the pair's X-translation class.
func (c *Cluster) Owns(u, v hhc.Node) bool {
	return c.ring.Owner(u, v) == c.cfg.Self
}

// Forward relays req to the owning peer over the binary wire and decodes
// the answer into resp, returning the owner's address so the caller's
// trace can attribute the hop. The hop-guard bit is always set on the
// outgoing frame, whatever the caller passed: a relayed query must never
// be relayed again. Transport failures feed the peer's breaker; a
// *pathsvc.ServerError is the owner's verdict and leaves the breaker
// untouched.
func (c *Cluster) Forward(req *pathsvc.RequestV2, resp *pathsvc.ResponseV2) (string, error) {
	req.Forwarded = true
	owner := c.ring.Owner(req.U, req.V)
	if owner == c.cfg.Self {
		// Only reachable when the caller's ownership check and ours
		// disagree, which a static single-ring membership rules out; answer
		// the impossible case safely.
		return "", fmt.Errorf("cluster: pair is self-owned by %s", c.Self())
	}
	p := c.peers[owner]
	now := time.Now()
	if p.down(now) {
		p.errs.Inc()
		return p.addr, fmt.Errorf("%w: %s", ErrPeerDown, p.addr)
	}
	cl, err := p.rc.Client()
	if err != nil {
		p.errs.Inc()
		c.noteFailure(p, now)
		return p.addr, fmt.Errorf("cluster: dial %s: %w", p.addr, err)
	}
	if err := cl.DoV2(req, resp); err != nil {
		var se *pathsvc.ServerError
		if errors.As(err, &se) {
			// The stream worked; the owner answered. Overload/shutdown
			// verdicts are the caller's cue to fall back, not a peer-health
			// signal.
			p.fails.Store(0)
			return p.addr, err
		}
		p.errs.Inc()
		p.rc.Invalidate(cl)
		c.noteFailure(p, now)
		return p.addr, fmt.Errorf("cluster: forward to %s: %w", p.addr, err)
	}
	p.fails.Store(0)
	p.downUntil.Store(0)
	p.forwarded.Inc()
	return p.addr, nil
}

// noteFailure counts one consecutive transport failure and trips the
// breaker at the threshold.
func (c *Cluster) noteFailure(p *peer, now time.Time) {
	if p.fails.Add(1) >= int64(c.cfg.FailThreshold) {
		p.downUntil.Store(now.Add(c.cfg.Cooldown).UnixNano())
		p.fails.Store(0)
	}
}

// Close tears down every peer connection.
func (c *Cluster) Close() {
	for _, p := range c.peers {
		if p != nil {
			p.rc.Close()
		}
	}
}

// String renders the membership for banners and logs.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster of %d peers, self=%s (index %d, %d vnodes/peer)",
		len(c.cfg.Peers), c.Self(), c.cfg.Self, c.ring.vnodes)
}

// PeerStatus is one remote peer's forward ledger for CLI summaries:
// address, forwards answered, forward errors, and whether the breaker
// currently holds the peer down.
type PeerStatus struct {
	Addr      string
	Forwarded int64
	Errors    int64
	Down      bool
}

// Status returns the current per-peer ledger (self omitted).
func (c *Cluster) Status() []PeerStatus {
	now := time.Now()
	st := make([]PeerStatus, 0, len(c.peers)-1)
	for _, p := range c.peers {
		if p == nil {
			continue
		}
		st = append(st, PeerStatus{
			Addr:      p.addr,
			Forwarded: p.forwarded.Load(),
			Errors:    p.errs.Load(),
			Down:      p.down(now),
		})
	}
	sort.Slice(st, func(i, j int) bool { return st[i].Addr < st[j].Addr })
	return st
}

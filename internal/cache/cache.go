// Package cache is a sharded, memoizing front-end for the container
// construction of internal/core. The paper's algorithm is poly(n) per pair,
// but serving workloads (fault-tolerant routing tables, repeated multi-path
// requests) ask for the same or symmetric pairs over and over; memoizing
// turns the hot path from microseconds of construction into a map lookup.
//
// # Keying
//
// Entries are keyed by the pair's X-translation class: (order strategy,
// detour strategy, u.Y, v.Y, u.X⊕v.X). The construction consumes a pair
// only through d = u.X⊕v.X and XOR-accumulates cube addresses, so every
// X-translate (u.X⊕a, u.Y) → (v.X⊕a, v.Y) of a pair gets the same moves
// from its own source: all 2^t translates share one entry, and a cached
// answer is bit-identical to direct DisjointPathsOpt output (asserted by
// tests). The cluster ring (internal/cluster) shards by the same class.
//
// # Concurrency
//
// The cache is safe for concurrent use. Requests hash to one of the
// shards; each shard serializes its map under a mutex and evicts LRU
// beyond its capacity. Identical in-flight constructions are deduplicated
// (singleflight): the first requester constructs, later ones wait on the
// same result. Every Paths caller — hit, miss, or coalesced waiter —
// receives freshly allocated paths, so it may mutate its result freely.
// Lookup is the copy-free probe for callers that only read: it returns a
// read-only view of the stored entry, which the caller replays from its
// own source into storage it reuses, and it never waits on an in-flight
// construction. Hit/miss/eviction/in-flight counters are exposed through
// internal/stats.
//
// # Storage
//
// An entry is one pointer-free byte string: the container's move strings
// (packed.go), one byte a step instead of a 16-byte node. Every path of a
// container leaves the source, and X-translation keeps moves, so replaying
// the stored moves from any translate's source gives that translate's
// container. A container that does not pack (a step between non-adjacent
// nodes) is an error and is never stored.
package cache

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/hhc"
	"repro/internal/stats"
)

// Options tunes a Cache.
type Options struct {
	// Shards is the number of independent lock domains; rounded up to a
	// power of two. Zero selects DefaultShards.
	Shards int
	// Capacity bounds the total number of stored containers across all
	// shards (each shard holds Capacity/Shards, at least 1). Zero selects
	// DefaultCapacity; negative means unbounded.
	Capacity int
}

// Defaults for Options zero values.
const (
	DefaultShards   = 16
	DefaultCapacity = 4096
)

// key identifies one stored container: an X-translation class of pairs
// under one pair of strategies.
type key struct {
	order  core.OrderStrategy
	detour core.DetourStrategy
	uy, vy uint8
	dx     uint64 // u.X ^ v.X
}

// entry is one cached container; moves is immutable once stored.
type entry struct {
	k     key
	moves Packed
}

// call is an in-flight construction other requesters can wait on.
type call struct {
	done  chan struct{}
	moves Packed
	err   error
}

// shard is one lock domain: an LRU-ordered map plus the in-flight table.
type shard struct {
	mu       sync.Mutex
	entries  map[key]*list.Element // guarded by mu; element value: *entry
	lru      *list.List            // guarded by mu; front = most recently used
	inflight map[key]*call         // guarded by mu
}

// Cache memoizes container constructions for one topology.
type Cache struct {
	g        *hhc.Graph
	shards   []*shard
	mask     uint64
	perShard int // max entries per shard; <0 = unbounded
	counters stats.CacheCounters
}

// New builds a cache bound to topology g.
func New(g *hhc.Graph, opts Options) (*Cache, error) {
	if g == nil {
		return nil, fmt.Errorf("cache: nil topology")
	}
	n := opts.Shards
	if n == 0 {
		n = DefaultShards
	}
	if n < 1 {
		return nil, fmt.Errorf("cache: %d shards out of range", n)
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	cap := opts.Capacity
	if cap == 0 {
		cap = DefaultCapacity
	}
	perShard := -1
	if cap > 0 {
		perShard = (cap + pow - 1) / pow
	}
	c := &Cache{
		g:        g,
		shards:   make([]*shard, pow),
		mask:     uint64(pow - 1),
		perShard: perShard,
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries:  make(map[key]*list.Element),
			lru:      list.New(),
			inflight: make(map[key]*call),
		}
	}
	return c, nil
}

// M returns the son-cube dimension of the bound topology.
func (c *Cache) M() int { return c.g.M() }

// Len returns the number of stored containers.
func (c *Cache) Len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += len(s.entries)
		s.mu.Unlock()
	}
	return total
}

// Snapshot reads the counters plus the current size.
func (c *Cache) Snapshot() stats.CacheSnapshot {
	return c.counters.Snapshot(int64(c.Len()))
}

// keyFor builds the key of (u, v)'s X-translation class.
func keyFor(u, v hhc.Node, opt core.Options) key {
	return key{order: opt.Order, detour: opt.Detour, uy: u.Y, vy: v.Y, dx: u.X ^ v.X}
}

// shardFor hashes a key onto its shard (FNV-1a over the key fields).
func (c *Cache) shardFor(k key) *shard {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mix(k.dx)
	mix(uint64(k.uy) | uint64(k.vy)<<8 | uint64(k.order)<<16 | uint64(k.detour)<<24)
	return c.shards[h&c.mask]
}

// Lookup answers (u, v) from the memo alone. On a hit it refreshes the
// entry's LRU position, counts one hit, and returns a read-only view of the
// stored container; p.AppendPaths(dst, u) replays it as the requested
// pair's container. A miss returns ok=false at once: Lookup never
// constructs, never joins an in-flight construction, and counts nothing, so
// a caller that falls back to Paths still counts exactly one hit or miss.
func (c *Cache) Lookup(u, v hhc.Node, opt core.Options) (p Packed, ok bool) {
	if !c.g.Contains(u) || !c.g.Contains(v) || u == v {
		return Packed{}, false
	}
	k := keyFor(u, v, opt)
	s := c.shardFor(k)
	s.mu.Lock()
	p, ok = s.get(k)
	s.mu.Unlock()
	if ok {
		c.counters.Hits.Inc()
	}
	return p, ok
}

// Paths returns the (m+1)-wide container between u and v, serving from the
// cache when possible. The result is always a fresh copy the caller owns.
// Invalid requests (unknown nodes, u == v) bypass the cache and report the
// construction's own error.
func (c *Cache) Paths(u, v hhc.Node, opt core.Options) ([][]hhc.Node, error) {
	if !c.g.Contains(u) || !c.g.Contains(v) || u == v {
		return core.DisjointPathsOpt(c.g, u, v, opt)
	}
	k := keyFor(u, v, opt)
	s := c.shardFor(k)

	s.mu.Lock()
	if p, ok := s.get(k); ok {
		s.mu.Unlock()
		c.counters.Hits.Inc()
		return replay(p, u), nil
	}
	if cl, ok := s.inflight[k]; ok {
		s.mu.Unlock()
		c.counters.InflightWaits.Inc()
		<-cl.done
		if cl.err != nil {
			return nil, cl.err
		}
		return replay(cl.moves, u), nil
	}
	cl := &call{done: make(chan struct{})}
	s.inflight[k] = cl
	s.mu.Unlock()
	c.counters.Misses.Inc()

	paths, err := core.DisjointPathsOpt(c.g, u, v, opt)
	if err == nil {
		cl.moves, err = pack(u, paths)
	}
	cl.err = err

	s.mu.Lock()
	delete(s.inflight, k)
	if cl.err == nil {
		s.insert(k, cl.moves, c.perShard, &c.counters)
	}
	s.mu.Unlock()
	close(cl.done)

	if cl.err != nil {
		return nil, cl.err
	}
	// The store keeps only the moves, so the fresh construction is this
	// caller's to own.
	return paths, nil
}

// get returns the stored container for k and marks it most recently used.
// Caller holds the shard lock.
//
//hhc:holds mu
func (s *shard) get(k key) (Packed, bool) {
	el, ok := s.entries[k]
	if !ok {
		return Packed{}, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry).moves, true
}

// insert stores a container and evicts LRU entries beyond the per-shard
// capacity (cap < 0 = unbounded). Caller holds the shard lock.
//
//hhc:holds mu
func (s *shard) insert(k key, moves Packed, cap int, counters *stats.CacheCounters) {
	if el, ok := s.entries[k]; ok {
		// A concurrent miss for the same key already stored it; keep the
		// newer value (identical by determinism) and refresh recency.
		el.Value.(*entry).moves = moves
		s.lru.MoveToFront(el)
		return
	}
	s.entries[k] = s.lru.PushFront(&entry{k: k, moves: moves})
	for cap >= 0 && s.lru.Len() > cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*entry).k)
		counters.Evictions.Inc()
	}
}

// replay expands a stored container from source u into fresh slices the
// caller owns.
func replay(p Packed, u hhc.Node) [][]hhc.Node {
	return p.AppendPaths(make([][]hhc.Node, 0, p.numPaths()), u)
}

// Constructor adapts the cache to the core.Constructor signature, so it
// drops into DisjointPathsBatchFunc and internal/netsim. A graph argument
// with a different m than the cache's topology bypasses the cache.
func (c *Cache) Constructor() core.Constructor {
	return func(g *hhc.Graph, u, v hhc.Node, opt core.Options) ([][]hhc.Node, error) {
		if g.M() != c.g.M() {
			return core.DisjointPathsOpt(g, u, v, opt)
		}
		return c.Paths(u, v, opt)
	}
}

// Batch constructs containers for every pair through the cache, with the
// same concurrency and result shape as core.DisjointPathsBatch.
func (c *Cache) Batch(pairs []core.Pair, opt core.Options, workers int) []core.BatchResult {
	return core.DisjointPathsBatchFunc(c.g, pairs, opt, workers, c.Constructor())
}

// Package cluster turns N hhcd processes into one logical path service.
// Membership is static: every peer is started with the same ordered peer
// list and its own index in it. A consistent-hash ring over the cache's
// pair key assigns each (u, v) query class an owning peer; non-owned
// queries are relayed to their owner over the pathsvc binary
// wire (protocol v2) with the hop-guard bit set, so a query crosses at
// most one peer hop even when two peers disagree about ownership. When
// the owner is unreachable the server falls back to a local answer —
// the cluster degrades to correctness-preserving slowness, never to
// errors.
//
// The ring hashes a pair's X-translation class, the cache's key (see
// internal/cache): all X-translates of a pair share one owner, so the
// owner's memoized-container cache sees every symmetric variant of its
// keys and the cluster-wide hit rate matches the single-node one.
package cluster

import (
	"sort"

	"repro/internal/hhc"
)

// DefaultVNodes is the virtual-node count per peer. Splitting each peer
// into many ring points bounds ownership skew: with v virtual nodes per
// peer the expected max/min shard ratio concentrates toward 1 as v grows
// (64 keeps the ratio under ~2 for small clusters, cheap to build and
// search).
const DefaultVNodes = 64

// fnv64 constants (FNV-1a), matching the cache's shard hash family.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// finalize runs a splitmix64-style avalanche over a raw FNV state. FNV-1a
// alone is fine for bucketed hash tables (only the low bits matter) but
// not for a hash circle: low-entropy inputs — sequential vnode indices,
// near-identical peer addresses, small node coordinates — leave the raw
// state correlated across the full 64-bit range, which showed up as >10×
// ownership skew. The finalizer spreads every input bit over the whole
// word, and is just as deterministic.
func finalize(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// point is one virtual node: a position on the hash circle owned by a peer.
type point struct {
	hash uint64
	peer int // index into Ring.peers
}

// Ring is an immutable consistent-hash ring over the pair-key space.
// Construction is deterministic: the same peer list and virtual-node
// count always produce the same ring, on every peer, in every process.
type Ring struct {
	points []point // sorted by hash
	peers  []string
	vnodes int
}

// NewRing builds the ring for an ordered peer list. vnodes <= 0 selects
// DefaultVNodes.
func NewRing(peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		peers:  append([]string(nil), peers...),
		vnodes: vnodes,
		points: make([]point, 0, len(peers)*vnodes),
	}
	for i, p := range r.peers {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: pointHash(p, v), peer: i})
		}
	}
	// Ties broken by peer index so two peers hashing onto the same point
	// (astronomically unlikely, but possible) still sort identically
	// everywhere.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r
}

// pointHash places one virtual node: FNV-1a over the peer address and the
// virtual-node index.
func pointHash(peer string, vnode int) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(peer); i++ {
		h ^= uint64(peer[i])
		h *= fnvPrime
	}
	h ^= '#' // separator: "ab"+vnode 1 must not collide with "ab1"+vnode 0
	h *= fnvPrime
	x := uint64(vnode)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return finalize(h)
}

// KeyHash hashes a query pair onto the ring's key space through its
// X-translation class (u.X^v.X, u.Y, v.Y): every X-translate of a pair —
// exactly the requests the owner's cache collapses onto one entry — lands
// on the same owner.
func KeyHash(u, v hhc.Node) uint64 {
	h := uint64(fnvOffset)
	x := u.X ^ v.X
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	h ^= uint64(u.Y)
	h *= fnvPrime
	h ^= uint64(v.Y)
	h *= fnvPrime
	return finalize(h)
}

// Owner returns the index of the peer owning the pair (u, v).
func (r *Ring) Owner(u, v hhc.Node) int {
	return r.ownerOf(KeyHash(u, v))
}

// ownerOf finds the first ring point at or clockwise of h (wrapping).
func (r *Ring) ownerOf(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].peer
}

// Peers returns the ordered peer list the ring was built from (a copy).
func (r *Ring) Peers() []string { return append([]string(nil), r.peers...) }

// Shares reports the fraction of the hash circle each peer owns — the
// expected share of a uniform query load. The fractions sum to 1.
func (r *Ring) Shares() []float64 {
	shares := make([]float64, len(r.peers))
	if len(r.points) == 0 {
		return shares
	}
	const whole = float64(1<<63) * 2 // 2^64 as a float
	// Each point owns the arc from its predecessor (exclusive) to itself;
	// the first point also owns the wrap-around arc after the last point.
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arc := p.hash - prev // uint64 subtraction wraps exactly like the circle
		shares[p.peer] += float64(arc) / whole
		prev = p.hash
	}
	return shares
}

// Package core implements the paper's primary contribution: an algorithm
// that constructs, between any two distinct nodes u and v of a hierarchical
// hypercube HHC_n (n = 2^m + m), the maximum possible number m+1 of
// pairwise node-disjoint paths — a "container" of width equal to the
// network's connectivity — in time polynomial in the address length n and
// wholly independent of the 2^n network size.
//
// # Construction overview
//
// Write u = (a, α), v = (b, β), D = a⊕b.
//
// Same son-cube (a = b): the m disjoint paths of the classical hypercube
// rotation/detour construction connect α and β inside the m-cube S_a, and
// one extra path leaves u through its external edge, crosses the three
// neighboring son-cubes S_{a⊕e_α}, S_{a⊕e_α⊕e_β}, S_{a⊕e_β}, and re-enters
// S_a exactly at v — it meets S_a only at the two endpoints.
//
// Different son-cubes (a ≠ b): m+1 node-disjoint "super-paths" from a to b
// are chosen in the 2^m-cube of son-cube addresses, as rotations of one
// cyclic order of D plus detours through dimensions outside D. Because node
// u has exactly m+1 incident edges — m local ones and a single external edge
// that crosses super-dimension dec(α) — exactly one chosen super-path must
// begin with dimension dec(α), and symmetrically exactly one must end with
// dec(β). The remaining m super-paths leave S_a at the m distinct processors
// named by their first dimensions; a fan (m vertex-disjoint paths from α to
// those processors inside the m-cube S_a, computed exactly by min-cost flow
// on the 2·2^m-vertex split graph) connects u to all of them without
// collisions, and a mirrored fan gathers the arrivals into v inside S_b.
// Distinct super-paths traverse disjoint sets of intermediate son-cubes, so
// inside those cubes a greedy bit-fixing walk between the entry and exit
// processors suffices.
//
// Every family this package returns is checked by tests against the
// definitionally-safe VerifyDisjoint, exhaustively over all node pairs for
// small m and against the max-flow Menger baseline for larger m.
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/hhc"
	"repro/internal/hypercube"
)

// ErrSameNode is returned when asked to connect a node to itself.
var ErrSameNode = errors.New("core: source and destination coincide")

// OrderStrategy selects the cyclic order of differing super-dimensions used
// by the rotation family. All strategies yield valid disjoint families; they
// differ only in the local-walk lengths inside pass-through son-cubes
// (ablated by experiment E8).
type OrderStrategy int

const (
	// OrderAscending uses the differing dimensions in increasing index
	// order. Simplest; the worst local walks.
	OrderAscending OrderStrategy = iota
	// OrderGray sorts the differing dimensions along the reflected Gray
	// cycle of Q_m, so consecutive processors in each rotation tend to be
	// close in the son-cube.
	OrderGray
	// OrderNearest chains the dimensions greedily by Hamming proximity,
	// starting from the dimension nearest to the source processor α.
	OrderNearest
)

// String names the strategy.
func (s OrderStrategy) String() string {
	switch s {
	case OrderAscending:
		return "ascending"
	case OrderGray:
		return "gray"
	case OrderNearest:
		return "nearest"
	default:
		return fmt.Sprintf("OrderStrategy(%d)", int(s))
	}
}

// DetourStrategy selects which dimensions outside D are preferred when the
// container needs detour super-paths (d < m+1). Like OrderStrategy it never
// affects correctness, only path lengths.
type DetourStrategy int

const (
	// DetourAscending uses the smallest available outside dimensions.
	DetourAscending DetourStrategy = iota
	// DetourNearest prefers outside dimensions whose processor label is
	// Hamming-close to the endpoints' processors, shortening the detour's
	// first and last son-cube walks.
	DetourNearest
)

// String names the strategy.
func (s DetourStrategy) String() string {
	switch s {
	case DetourAscending:
		return "det-ascending"
	case DetourNearest:
		return "det-nearest"
	default:
		return fmt.Sprintf("DetourStrategy(%d)", int(s))
	}
}

// Options tunes the construction.
type Options struct {
	// Order picks the cyclic order strategy. Zero value = OrderAscending.
	Order OrderStrategy
	// Detour picks the detour-dimension preference. Zero value =
	// DetourAscending.
	Detour DetourStrategy
}

// DisjointPaths constructs m+1 pairwise node-disjoint paths between u and v
// with default options. The first path is not guaranteed shortest; the
// family as a whole matches the network's connectivity, which is the
// maximum achievable by Menger's theorem.
func DisjointPaths(g *hhc.Graph, u, v hhc.Node) ([][]hhc.Node, error) {
	return DisjointPathsOpt(g, u, v, Options{})
}

// DisjointPathsK returns the k shortest paths of the full container,
// for callers that need less redundancy than the maximum width m+1
// (1 <= k <= m+1). The returned family is still pairwise node-disjoint.
func DisjointPathsK(g *hhc.Graph, u, v hhc.Node, k int) ([][]hhc.Node, error) {
	if k < 1 || k > g.Degree() {
		return nil, fmt.Errorf("core: width %d out of range [1,%d]", k, g.Degree())
	}
	paths, err := DisjointPaths(g, u, v)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(paths, func(i, j int) bool { return len(paths[i]) < len(paths[j]) })
	return paths[:k], nil
}

// DisjointPathsOpt is DisjointPaths with explicit options.
func DisjointPathsOpt(g *hhc.Graph, u, v hhc.Node, opt Options) ([][]hhc.Node, error) {
	if !g.Contains(u) || !g.Contains(v) {
		return nil, fmt.Errorf("core: invalid node for m=%d: %s / %s", g.M(), g.FormatNode(u), g.FormatNode(v))
	}
	if u == v {
		return nil, ErrSameNode
	}
	o := observer.Load()
	c := o.startConstruct(g, u, v)
	var paths [][]hhc.Node
	var err error
	if u.X == v.X {
		paths, err = sameCubePaths(g, u, v)
	} else {
		paths, err = crossCubePaths(g, u, v, opt, o)
	}
	c.end(err)
	return paths, err
}

// sameCubePaths handles u = (a, α), v = (a, β), α ≠ β.
func sameCubePaths(g *hhc.Graph, u, v hhc.Node) ([][]hhc.Node, error) {
	m := g.M()
	inner, err := hypercube.DisjointPaths(m, uint64(u.Y), uint64(v.Y), m)
	if err != nil {
		return nil, fmt.Errorf("core: son-cube family: %w", err)
	}
	paths := make([][]hhc.Node, 0, m+1)
	for _, p := range inner {
		paths = append(paths, liftLocal(u.X, p))
	}
	paths = append(paths, outsidePath(g, u, v))
	return paths, nil
}

// liftLocal embeds a Q_m vertex path into son-cube S_x.
func liftLocal(x uint64, p []uint64) []hhc.Node {
	out := make([]hhc.Node, len(p))
	for i, y := range p {
		out[i] = hhc.Node{X: x, Y: uint8(y)}
	}
	return out
}

// outsidePath builds the single path between same-cube endpoints that stays
// outside S_a except for u and v themselves: it crosses super-dimensions
// α, β, α, β, visiting S_{a⊕e_α}, S_{a⊕e_α⊕e_β} and S_{a⊕e_β}.
func outsidePath(g *hhc.Graph, u, v hhc.Node) []hhc.Node {
	α, β := uint64(u.Y), uint64(v.Y)
	// Four crossings and three α↔β walks (the first hop starts at α).
	path := make([]hhc.Node, 1, 5+3*hypercube.Hamming(α, β))
	path[0] = u
	x, y := u.X, α
	for _, dim := range [4]uint64{α, β, α, β} {
		// Walk to processor dim inside the current cube, then cross.
		path = appendBitFix(path, x, y, dim)
		y = dim
		x ^= 1 << uint(dim)
		path = append(path, hhc.Node{X: x, Y: uint8(y)})
	}
	return path
}

// crossCubePaths handles u = (a, α), v = (b, β) with a ≠ b, timing and
// tracing each phase under o (nil: uninstrumented).
func crossCubePaths(g *hhc.Graph, u, v hhc.Node, opt Options, o *Observer) ([][]hhc.Node, error) {
	m, t := g.M(), g.T()
	d := u.X ^ v.X

	ph := o.startPhase("derive")
	order := cyclicOrder(d, uint64(u.Y), opt.Order)
	pref := detourPreference(t, uint64(u.Y), uint64(v.Y), opt.Detour)
	ph.end()

	ph = o.startPhase("select")
	seqs, err := selectSupers(t, m+1, d, order, int(u.Y), int(v.Y), pref)
	ph.end()
	if err != nil {
		return nil, err
	}

	ph = o.startPhase("realize")
	paths, err := realize(g, u, v, seqs)
	ph.end()
	return paths, err
}

// detourPreference orders the candidate detour dimensions by the strategy;
// selectSupers tries outside-D detours in this order.
func detourPreference(t int, alpha, beta uint64, strategy DetourStrategy) []int {
	pref := make([]int, t)
	for i := range pref {
		pref[i] = i
	}
	if strategy == DetourNearest {
		sort.SliceStable(pref, func(i, j int) bool {
			ci := hypercube.Hamming(uint64(pref[i]), alpha) + hypercube.Hamming(uint64(pref[i]), beta)
			cj := hypercube.Hamming(uint64(pref[j]), alpha) + hypercube.Hamming(uint64(pref[j]), beta)
			return ci < cj
		})
	}
	return pref
}

// cyclicOrder arranges the differing super-dimensions according to the
// strategy. The result is one fixed cyclic order shared by every rotation,
// which is what guarantees pairwise disjointness of the rotation family.
func cyclicOrder(mask uint64, alpha uint64, strategy OrderStrategy) []int {
	dims := hypercube.Dims(mask)
	switch strategy {
	case OrderGray:
		sort.Slice(dims, func(i, j int) bool {
			return hypercube.GrayRank(uint64(dims[i])) < hypercube.GrayRank(uint64(dims[j]))
		})
	case OrderNearest:
		ordered := make([]int, 0, len(dims))
		used := make([]bool, len(dims))
		cur := alpha
		for len(ordered) < len(dims) {
			best, bestD := -1, 1<<30
			for i, dim := range dims {
				if used[i] {
					continue
				}
				if h := hypercube.Hamming(cur, uint64(dim)); h < bestD {
					best, bestD = i, h
				}
			}
			used[best] = true
			ordered = append(ordered, dims[best])
			cur = uint64(dims[best])
		}
		dims = ordered
	}
	return dims
}

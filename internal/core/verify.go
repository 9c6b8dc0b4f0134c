package core

import (
	"fmt"

	"repro/internal/hhc"
	"repro/internal/hypercube"
)

// VerifyDisjoint checks that every path runs from u to v through valid
// adjacent nodes without repeating a vertex, and that the paths pairwise
// share no vertex besides u and v. It runs in time linear in the total path
// length and is the definitional ground truth the construction is tested
// against.
func VerifyDisjoint(g *hhc.Graph, u, v hhc.Node, paths [][]hhc.Node) error {
	defer observer.Load().startPhase("verify").end()
	seen := make(map[hhc.Node]int)
	for pi, p := range paths {
		if err := g.VerifyPath(u, v, p); err != nil {
			return fmt.Errorf("path %d: %w", pi, err)
		}
		for _, w := range p[1 : len(p)-1] {
			if prev, ok := seen[w]; ok {
				return fmt.Errorf("core: paths %d and %d share internal vertex %s", prev, pi, g.FormatNode(w))
			}
			seen[w] = pi
		}
	}
	return nil
}

// VerifyContainer additionally demands the full container width m+1.
func VerifyContainer(g *hhc.Graph, u, v hhc.Node, paths [][]hhc.Node) error {
	if len(paths) != g.Degree() {
		return fmt.Errorf("core: container has %d paths, want %d", len(paths), g.Degree())
	}
	return VerifyDisjoint(g, u, v, paths)
}

// MaxLenBound returns the analytic upper bound on the length of any path
// the construction can produce for the pair (u, v). It is deliberately
// loose (the fan segments are bounded by the trivial simple-path bound
// 2^m − 1); experiment E2 contrasts it with measured maxima.
func MaxLenBound(g *hhc.Graph, u, v hhc.Node) int {
	m := g.M()
	if u.X == v.X {
		h := hypercube.Hamming(uint64(u.Y), uint64(v.Y))
		// Inside paths: h+2; outside path: 4 external hops + 3 local walks.
		out := 3*h + 4
		if in := h + 2; in > out {
			out = in
		}
		return out
	}
	d := hypercube.Hamming(u.X, v.X)
	fan := 1<<uint(m) - 1
	return (d + 2) + (d+1)*m + 2*fan
}

// TotalLength sums the path lengths (in edges) of a family.
func TotalLength(paths [][]hhc.Node) int {
	total := 0
	for _, p := range paths {
		total += len(p) - 1
	}
	return total
}

// MaxLength returns the longest path length (in edges) of a family.
func MaxLength(paths [][]hhc.Node) int {
	longest := 0
	for _, p := range paths {
		if l := len(p) - 1; l > longest {
			longest = l
		}
	}
	return longest
}

package core

import (
	"fmt"

	"repro/internal/hhc"
	"repro/internal/hypercube"
)

// realize lifts the selected super-paths into concrete node-disjoint paths.
//
// Every super-path with first dimension j ≠ dec(α) exits the source son-cube
// at processor j; a fan inside S_a connects α to all those exits without
// collisions. Symmetrically a fan inside S_b gathers the entry processors
// into β. The pass-through son-cubes of different super-paths are disjoint,
// so inside them a plain greedy walk needs no coordination.
func realize(g *hhc.Graph, u, v hhc.Node, seqs [][]int) ([][]hhc.Node, error) {
	m := g.M()
	alpha, beta := uint64(u.Y), uint64(v.Y)

	// Fan targets preserve the order of seqs so paths can look them up.
	exitFor := make([]int, len(seqs))  // index into fanA, or -1 for direct exit
	entryFor := make([]int, len(seqs)) // index into fanB, or -1 for direct entry
	exitTargets := make([]uint64, 0, len(seqs))
	entryTargets := make([]uint64, 0, len(seqs))
	for i, seq := range seqs {
		first, last := uint64(seq[0]), uint64(seq[len(seq)-1])
		if first == alpha {
			exitFor[i] = -1
		} else {
			exitFor[i] = len(exitTargets)
			exitTargets = append(exitTargets, first)
		}
		if last == beta {
			entryFor[i] = -1
		} else {
			entryFor[i] = len(entryTargets)
			entryTargets = append(entryTargets, last)
		}
	}
	fanA, err := hypercube.Fan(m, alpha, exitTargets)
	if err != nil {
		return nil, fmt.Errorf("core: source fan: %w", err)
	}
	fanB, err := hypercube.Fan(m, beta, entryTargets)
	if err != nil {
		return nil, fmt.Errorf("core: destination fan: %w", err)
	}

	paths := make([][]hhc.Node, len(seqs))
	for i, seq := range seqs {
		// Size the path first: fan legs, one son-cube walk and crossing per
		// super-dimension, then the entry fan leg.
		n, y := 1, alpha
		if fi := exitFor[i]; fi >= 0 {
			n += len(fanA[fi]) - 1
			y = exitTargets[fi]
		}
		for _, dim := range seq {
			n += hypercube.Hamming(y, uint64(dim)) + 1
			y = uint64(dim)
		}
		if fi := entryFor[i]; fi >= 0 {
			n += len(fanB[fi]) - 1
		}

		path := make([]hhc.Node, 1, n)
		path[0] = u
		x, y := u.X, alpha
		if fi := exitFor[i]; fi >= 0 {
			for _, w := range fanA[fi][1:] {
				path = append(path, hhc.Node{X: x, Y: uint8(w)})
			}
			y = exitTargets[fi]
		}
		for k, dim := range seq {
			if k == 0 && y != uint64(dim) {
				return nil, fmt.Errorf("core: internal: exit %d != first dim %d", y, dim)
			}
			path = appendBitFix(path, x, y, uint64(dim))
			y = uint64(dim)
			x ^= 1 << uint(dim)
			path = append(path, hhc.Node{X: x, Y: uint8(y)})
		}
		if x != v.X {
			return nil, fmt.Errorf("core: internal: super-path %d lands in cube %#x, want %#x", i, x, v.X)
		}
		if fi := entryFor[i]; fi >= 0 {
			fb := fanB[fi] // β … entry; traverse backwards from entry to β
			if y != fb[len(fb)-1] {
				return nil, fmt.Errorf("core: internal: entry mismatch on path %d", i)
			}
			for k := len(fb) - 2; k >= 0; k-- {
				path = append(path, hhc.Node{X: x, Y: uint8(fb[k])})
			}
		}
		if got := path[len(path)-1]; got != v {
			return nil, fmt.Errorf("core: internal: path %d ends at %s, want %s", i, g.FormatNode(got), g.FormatNode(v))
		}
		paths[i] = path
	}
	return paths, nil
}

// appendBitFix appends the greedy bit-fixing walk inside son-cube S_x from
// processor from to processor to, excluding from itself: the nodes of
// hypercube.BitFixPath(from, to)[1:], without allocating it.
func appendBitFix(path []hhc.Node, x, from, to uint64) []hhc.Node {
	for diff := from ^ to; diff != 0; diff &= diff - 1 {
		from ^= diff & -diff
		path = append(path, hhc.Node{X: x, Y: uint8(from)})
	}
	return path
}

package hypercube

import (
	"fmt"
	"sync"

	"repro/internal/flow"
)

// MaxFanDim bounds the cube dimension accepted by Fan: the exact min-cost
// flow solver runs on the 2·2^k-vertex split graph, so we keep k small. The
// hierarchical hypercube only ever needs k = m <= 6.
const MaxFanDim = 16

// Fan returns len(targets) vertex paths in Q_k from src to each target such
// that the paths pairwise share only src and no path passes through another
// target. Targets must be distinct, different from src, and at most k of
// them (Q_k is k-connected, so a fan of size <= k always exists by the fan
// lemma; the solver proves it constructively). The returned family has
// minimum total length and is index-aligned with targets.
func Fan(k int, src uint64, targets []uint64) ([][]uint64, error) {
	if err := CheckVertex(k, src); err != nil {
		return nil, err
	}
	if k > MaxFanDim {
		return nil, fmt.Errorf("hypercube: fan dimension %d exceeds %d", k, MaxFanDim)
	}
	if len(targets) > k {
		return nil, fmt.Errorf("hypercube: fan of %d targets exceeds connectivity %d", len(targets), k)
	}
	for _, t := range targets {
		if err := CheckVertex(k, t); err != nil {
			return nil, err
		}
	}
	if len(targets) == 0 {
		return nil, nil
	}
	s, err := fanSolvers[k]()
	if err != nil {
		return nil, err
	}
	return s.Fan(src, targets)
}

// fanSolvers holds one fan solver per dimension, built on first use: every
// fan in Q_k runs on the same split network. A solver keeps that network
// and up to one working copy per processor, each 2^(k+1)·(k+1) edge entries
// of 16 bytes: 14 KB at the hierarchical hypercube's k <= 6, 36 MB at
// MaxFanDim.
var fanSolvers [MaxFanDim + 1]func() (*flow.FanSolver, error)

func init() {
	for k := range fanSolvers {
		fanSolvers[k] = sync.OnceValues(func() (*flow.FanSolver, error) {
			g, err := NewGraph(k)
			if err != nil {
				return nil, err
			}
			return flow.NewFanSolver(g)
		})
	}
}

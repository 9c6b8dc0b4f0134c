package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/hypercube"
)

// checkSelection asserts the port-discipline invariants selectSupers must
// guarantee for realize() to work:
//
//  1. exactly `count` sequences;
//  2. every sequence is a valid super-path from a to a^mask (XOR of dims
//     equals mask, prefix vertices distinct);
//  3. pairwise internally disjoint in Q_t;
//  4. pairwise distinct first dims and pairwise distinct last dims;
//  5. exactly one first dim == aDim and exactly one last dim == bDim.
func checkSelection(t *testing.T, tDim, count int, mask uint64, order []int, aDim, bDim int, seqs [][]int) {
	t.Helper()
	if len(seqs) != count {
		t.Fatalf("got %d sequences, want %d", len(seqs), count)
	}
	paths := make([][]uint64, len(seqs))
	firsts := map[int]int{}
	lasts := map[int]int{}
	for i, seq := range seqs {
		var xor uint64
		for _, d := range seq {
			if d < 0 || d >= tDim {
				t.Fatalf("seq %d: dim %d out of range", i, d)
			}
			xor ^= 1 << uint(d)
		}
		if xor != mask {
			t.Fatalf("seq %d does not connect a to b: xor %#x, want %#x", i, xor, mask)
		}
		firsts[seq[0]]++
		lasts[seq[len(seq)-1]]++
		paths[i] = hypercube.ApplyDims(0, seq) // disjointness is translation-invariant
	}
	if err := hypercube.VerifyDisjoint(tDim, 0, mask, paths); err != nil {
		t.Fatalf("super-paths not disjoint: %v", err)
	}
	for d, c := range firsts {
		if c > 1 {
			t.Fatalf("first dim %d used %d times", d, c)
		}
	}
	for d, c := range lasts {
		if c > 1 {
			t.Fatalf("last dim %d used %d times", d, c)
		}
	}
	if firsts[aDim] != 1 {
		t.Fatalf("first dim aDim=%d used %d times, want exactly 1", aDim, firsts[aDim])
	}
	if lasts[bDim] != 1 {
		t.Fatalf("last dim bDim=%d used %d times, want exactly 1", bDim, lasts[bDim])
	}
}

// TestSelectSupersExhaustiveSmall sweeps every mask and every (aDim, bDim)
// combination for t = 4 and t = 8 (m = 2, 3).
func TestSelectSupersExhaustiveSmall(t *testing.T) {
	for _, cfg := range []struct{ tDim, count int }{{4, 3}, {8, 4}} {
		for mask := uint64(1); mask < 1<<uint(cfg.tDim); mask++ {
			order := hypercube.Dims(mask)
			for aDim := 0; aDim < cfg.tDim; aDim++ {
				for bDim := 0; bDim < cfg.tDim; bDim++ {
					seqs, err := selectSupers(cfg.tDim, cfg.count, mask, order, aDim, bDim, nil)
					if err != nil {
						t.Fatalf("t=%d mask=%#x a=%d b=%d: %v", cfg.tDim, mask, aDim, bDim, err)
					}
					checkSelection(t, cfg.tDim, cfg.count, mask, order, aDim, bDim, seqs)
				}
			}
		}
	}
}

// TestSelectSupersRandomLarge samples the t = 16..64 regimes with random
// masks, endpoints, and shuffled cyclic orders.
func TestSelectSupersRandomLarge(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, cfg := range []struct{ tDim, count int }{{16, 5}, {32, 6}, {64, 7}} {
		limit := uint64(1)<<uint(cfg.tDim) - 1
		if cfg.tDim == 64 {
			limit = ^uint64(0)
		}
		for trial := 0; trial < 400; trial++ {
			mask := r.Uint64() & limit
			if mask == 0 {
				continue
			}
			order := hypercube.Dims(mask)
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			aDim := r.Intn(cfg.tDim)
			bDim := r.Intn(cfg.tDim)
			// Random detour preference permutation.
			pref := r.Perm(cfg.tDim)
			seqs, err := selectSupers(cfg.tDim, cfg.count, mask, order, aDim, bDim, pref)
			if err != nil {
				t.Fatalf("t=%d mask=%#x: %v", cfg.tDim, mask, err)
			}
			checkSelection(t, cfg.tDim, cfg.count, mask, order, aDim, bDim, seqs)
		}
	}
}

// TestSelectSupersRotationPreference: when |D| >= count, all selected
// sequences must be rotations (length |D|), never detours.
func TestSelectSupersRotationPreference(t *testing.T) {
	mask := uint64(0b11111) // d = 5 >= count = 4
	order := hypercube.Dims(mask)
	seqs, err := selectSupers(8, 4, mask, order, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range seqs {
		if len(seq) != bits.OnesCount64(mask) {
			t.Fatalf("seq %d has length %d, want rotation length %d", i, len(seq), bits.OnesCount64(mask))
		}
	}
}

// TestSelectSupersEmptyMask rejects d = 0.
func TestSelectSupersEmptyMask(t *testing.T) {
	if _, err := selectSupers(8, 4, 0, nil, 0, 0, nil); err == nil {
		t.Fatal("empty dimension set accepted")
	}
}

// TestCyclicOrderStrategies: every strategy emits a permutation of the
// differing dims.
func TestCyclicOrderStrategies(t *testing.T) {
	mask := uint64(0b1011010)
	want := hypercube.Dims(mask)
	for _, s := range []OrderStrategy{OrderAscending, OrderGray, OrderNearest} {
		got := cyclicOrder(mask, 3, s)
		if len(got) != len(want) {
			t.Fatalf("%v: %d dims", s, len(got))
		}
		seen := map[int]bool{}
		for _, d := range got {
			if seen[d] || mask>>uint(d)&1 == 0 {
				t.Fatalf("%v: bad order %v", s, got)
			}
			seen[d] = true
		}
	}
	if OrderAscending.String() != "ascending" || OrderGray.String() != "gray" ||
		OrderNearest.String() != "nearest" {
		t.Fatal("strategy names wrong")
	}
	if OrderStrategy(42).String() == "" {
		t.Fatal("unknown strategy should format")
	}
}

// TestDetourPreferencePermutation: both strategies emit permutations of
// 0..t-1, and DetourNearest ranks endpoint-close labels first.
func TestDetourPreferencePermutation(t *testing.T) {
	for _, s := range []DetourStrategy{DetourAscending, DetourNearest} {
		pref := detourPreference(16, 5, 9, s)
		if len(pref) != 16 {
			t.Fatalf("%v: %d entries", s, len(pref))
		}
		seen := map[int]bool{}
		for _, d := range pref {
			if d < 0 || d >= 16 || seen[d] {
				t.Fatalf("%v: not a permutation: %v", s, pref)
			}
			seen[d] = true
		}
	}
	pref := detourPreference(16, 5, 5, DetourNearest)
	if pref[0] != 5 {
		t.Fatalf("nearest preference should rank the endpoint label first, got %v", pref[:4])
	}
}

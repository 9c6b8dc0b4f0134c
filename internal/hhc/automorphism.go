package hhc

import "fmt"

// Automorphisms. The hierarchical hypercube is vertex-transitive, which is
// what licenses estimating global metrics (diameter, eccentricity
// distributions) from a few sources. The witness family used here:
//
//   - X-translations: (x, y) ↦ (x ⊕ a, y) for any a — the external edge of
//     a node flips the x-bit named by its own y, which is untouched.
//   - Y-translations with compensating position shuffles:
//     (x, y) ↦ (σ_b(x), y ⊕ b), where σ_b permutes the bit positions of x
//     by i ↦ i ⊕ b. A local edge stays local; the external edge at (x, y)
//     flips x-position dec(y), whose image is position dec(y)⊕b =
//     dec(y ⊕ b) — exactly the dimension the image node serves.
//
// Composing the two maps any node onto any other, so the group acts
// transitively on the 2^n nodes.

// Automorphism is a symmetry of the network from the translation family.
type Automorphism struct {
	g *Graph
	a uint64 // X XOR-translation
	b uint8  // Y translation / position shuffle
}

// NewAutomorphism builds the automorphism with parameters (a, b).
func (g *Graph) NewAutomorphism(a uint64, b uint8) (Automorphism, error) {
	if g.t < 64 && a>>uint(g.t) != 0 {
		return Automorphism{}, fmt.Errorf("hhc: translation %#x exceeds %d bits", a, g.t)
	}
	if int(b) >= g.t {
		return Automorphism{}, fmt.Errorf("hhc: shuffle parameter %d out of range [0,%d)", b, g.t)
	}
	return Automorphism{g: g, a: a, b: b}, nil
}

// Apply maps a node through the automorphism.
func (f Automorphism) Apply(u Node) Node {
	x := shuffleBits(u.X, f.b, f.g.t) ^ f.a
	return Node{X: x, Y: u.Y ^ f.b}
}

// Inverse returns the automorphism undoing f. The position shuffle σ_b is
// an involution (i ↦ i⊕b twice is the identity) and XOR-linear, so the
// inverse of x ↦ σ_b(x) ⊕ a is x ↦ σ_b(x ⊕ a) = σ_b(x) ⊕ σ_b(a): the same
// b with the translation parameter shuffled.
func (f Automorphism) Inverse() Automorphism {
	return Automorphism{g: f.g, a: shuffleBits(f.a, f.b, f.g.t), b: f.b}
}

// ApplyPath maps every node of a path through the automorphism into a fresh
// slice; the input is not modified.
func (f Automorphism) ApplyPath(path []Node) []Node {
	out := make([]Node, len(path))
	for i, u := range path {
		out[i] = f.Apply(u)
	}
	return out
}

// shuffleBits permutes the t bit positions of x by i -> i XOR b.
func shuffleBits(x uint64, b uint8, t int) uint64 {
	if b == 0 {
		return x
	}
	var out uint64
	for i := 0; i < t; i++ {
		out |= (x >> uint(i) & 1) << (uint(i) ^ uint(b))
	}
	return out
}

// MappingTo returns an automorphism carrying u onto v (always exists:
// vertex-transitivity).
func (g *Graph) MappingTo(u, v Node) (Automorphism, error) {
	if err := g.check(u); err != nil {
		return Automorphism{}, err
	}
	if err := g.check(v); err != nil {
		return Automorphism{}, err
	}
	b := u.Y ^ v.Y
	// First shuffle positions, then translate so the image of u.X lands on
	// v.X: a = σ_b(u.X) ⊕ v.X.
	a := shuffleBits(u.X, b, g.t) ^ v.X
	return Automorphism{g: g, a: a, b: b}, nil
}

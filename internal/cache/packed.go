package cache

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hhc"
)

// Every step in HHC is one of m+1 moves: flip local bit i of y, or take the
// node's one external edge, which flips x-bit y. A container's paths all
// leave the source, so a container is its move strings alone. An
// X-translation x ↦ x⊕a keeps every move: a local step stays the same
// flip, and an external edge maps to the image's external edge, since y
// is unchanged. Replaying a stored container's moves from a translate's
// source therefore yields exactly the translated container, with no start
// nodes stored and no automorphism applied.
//
// The packed layout is one byte holding the path count, then for each path
// a uvarint move count followed by one byte per move: the one-hot mask of
// the flipped local bit (1<<i, i < m), or moveExternal. Masks let the
// replay loop run without a branch per move.

// moveExternal is the move byte for the external edge; no local mask is 0.
const moveExternal = 0

// Packed is a read-only view of one stored container as move strings.
type Packed struct {
	b []byte
}

// AppendPaths replays the container from source u and appends its paths
// to dst. Slots of dst between its length and capacity are reused as path
// storage, so a caller that passes back its previous result, truncated to
// zero length, replays without allocating once its slots are large enough;
// slots that are nil or too small are allocated at their path's exact
// length.
func (p Packed) AppendPaths(dst [][]hhc.Node, u hhc.Node) [][]hhc.Node {
	if len(p.b) == 0 {
		return dst
	}
	n, b := int(p.b[0]), p.b[1:]
	for i := 0; i < n; i++ {
		moves, w := binary.Uvarint(b)
		b = b[w:]
		var path []hhc.Node
		if len(dst) < cap(dst) {
			path = dst[:len(dst)+1][len(dst)][:0]
		}
		if cap(path) < int(moves)+1 {
			path = make([]hhc.Node, 0, moves+1)
		}
		path = path[:moves+1]
		path[0] = u
		x, y := u.X, u.Y
		for j, mv := range b[:moves] {
			ext := uint64(uint16(mv)-1) >> 15 // 1 for moveExternal, else 0
			x ^= ext << (y & 63)
			y ^= mv
			path[j+1] = hhc.Node{X: x, Y: y}
		}
		b = b[moves:]
		dst = append(dst, path)
	}
	return dst
}

// numPaths returns the number of paths the container holds.
func (p Packed) numPaths() int {
	if len(p.b) == 0 {
		return 0
	}
	return int(p.b[0])
}

// pack encodes a container whose every path leaves src as move strings,
// allocating the result once at its final size. It rejects a container it
// cannot replay faithfully: more paths than the count byte holds, a path
// of fewer than two nodes or not starting at src, or a step between
// non-adjacent nodes.
func pack(src hhc.Node, paths [][]hhc.Node) (Packed, error) {
	if len(paths) > 0xff {
		return Packed{}, fmt.Errorf("cache: pack: %d paths, at most 255", len(paths))
	}
	size := 1
	for i, path := range paths {
		if len(path) < 2 {
			return Packed{}, fmt.Errorf("cache: pack: path %d has %d nodes, want at least 2", i, len(path))
		}
		if path[0] != src {
			return Packed{}, fmt.Errorf("cache: pack: path %d starts at %s, want %s",
				i, hhc.FormatNodeWire(path[0]), hhc.FormatNodeWire(src))
		}
		size += uvarintLen(uint64(len(path)-1)) + len(path) - 1
	}
	b := make([]byte, 0, size)
	b = append(b, byte(len(paths)))
	for i, path := range paths {
		b = binary.AppendUvarint(b, uint64(len(path)-1))
		for j := 1; j < len(path); j++ {
			mv, ok := move(path[j-1], path[j])
			if !ok {
				return Packed{}, fmt.Errorf("cache: pack: path %d step %d: %s and %s not adjacent",
					i, j, hhc.FormatNodeWire(path[j-1]), hhc.FormatNodeWire(path[j]))
			}
			b = append(b, mv)
		}
	}
	return Packed{b: b}, nil
}

// move names the step from a to b, reporting false when they are not
// adjacent (the same rule as hhc.Graph.Adjacent).
func move(a, b hhc.Node) (byte, bool) {
	if a.X == b.X {
		d := a.Y ^ b.Y
		if d == 0 || d&(d-1) != 0 {
			return 0, false
		}
		return d, true
	}
	if a.Y != b.Y || a.X^b.X != 1<<a.Y {
		return 0, false
	}
	return moveExternal, true
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

package hhc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ParseNode parses the textual node form "x:y" (e.g. "0x2a:3" or "42:3");
// x accepts decimal, 0x-hex, or 0b-binary, y is decimal. The parsed node is
// validated against the topology: syntactically valid addresses whose
// coordinates exceed the topology limits — including values too large for
// the machine integer types — all report the same "out of range" error
// naming the actual bounds x < 2^t, y < t (t = 2^m).
func (g *Graph) ParseNode(s string) (Node, error) {
	x, y, err := parseCoords(s)
	if err != nil {
		if errors.Is(err, strconv.ErrRange) {
			return Node{}, g.rangeError(s)
		}
		return Node{}, err
	}
	if y >= uint64(g.t) {
		return Node{}, g.rangeError(s)
	}
	u := Node{X: x, Y: uint8(y)}
	if !g.Contains(u) {
		return Node{}, g.rangeError(s)
	}
	return u, nil
}

// parseCoords splits and parses the "x:y" form without topology
// validation, allocating nothing on a valid address; y is parsed at full
// width so oversized processor addresses surface as strconv.ErrRange for
// the caller to map onto its own bounds.
func parseCoords(s string) (x, y uint64, err error) {
	xs, ys, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("hhc: node %q: want x:y", s)
	}
	x, err = strconv.ParseUint(strings.TrimSpace(xs), 0, 64)
	if err != nil {
		if errors.Is(err, strconv.ErrRange) {
			return 0, 0, fmt.Errorf("hhc: node %q: %w", s, strconv.ErrRange)
		}
		return 0, 0, fmt.Errorf("hhc: node %q: bad cube address: %w", s, err)
	}
	y, err = strconv.ParseUint(strings.TrimSpace(ys), 0, 64)
	if err != nil {
		if errors.Is(err, strconv.ErrRange) {
			return 0, 0, fmt.Errorf("hhc: node %q: %w", s, strconv.ErrRange)
		}
		return 0, 0, fmt.Errorf("hhc: node %q: bad processor address: %w", s, err)
	}
	return x, y, nil
}

// ParseNodeWire parses the wire "x:y" form without topology validation:
// protocol clients do not know the served m, so they parse loosely and let
// the serving side check the address against its own graph. A y too large
// for any supported topology (>= 2^MaxM) is still rejected here because it
// cannot be represented in a Node.
func ParseNodeWire(s string) (Node, error) {
	x, y, err := parseCoords(s)
	if err != nil {
		return Node{}, err
	}
	if y >= 1<<uint(MaxM) {
		return Node{}, fmt.Errorf("hhc: node %q: processor address %d exceeds every supported topology (y < %d)",
			s, y, 1<<uint(MaxM))
	}
	return Node{X: x, Y: uint8(y)}, nil
}

// FormatNodeWire renders a node in the wire "x:y" form without needing a
// topology in scope (Graph.FormatNode is the method form used where one
// is). It costs one allocation, the returned string.
func FormatNodeWire(u Node) string {
	var buf [len("0x:") + 16 + 3]byte
	return string(AppendNodeWire(buf[:0], u))
}

// AppendNodeWire appends the wire "x:y" form of u to dst — the output of
// fmt's "%#x:%d" — and returns the extended slice.
func AppendNodeWire(dst []byte, u Node) []byte {
	dst = append(dst, "0x"...)
	dst = strconv.AppendUint(dst, u.X, 16)
	dst = append(dst, ':')
	return strconv.AppendUint(dst, uint64(u.Y), 10)
}

// rangeError is the single out-of-range diagnostic for every coordinate
// limit violation: x must fit t = 2^m bits and y must name one of the t
// processors of a son-cube.
func (g *Graph) rangeError(s string) error {
	return fmt.Errorf("hhc: node %q out of range for m=%d (need x < 2^%d, y < %d)", s, g.m, g.t, g.t)
}

// FormatNode renders a node in the same "x:y" form ParseNode accepts.
func (g *Graph) FormatNode(u Node) string {
	return FormatNodeWire(u)
}

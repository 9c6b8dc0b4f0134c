package hhc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestParseNodeValid: accepted spellings across bases and whitespace.
func TestParseNodeValid(t *testing.T) {
	g, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in   string
		want Node
	}{
		{"0x2a:3", Node{X: 0x2a, Y: 3}},
		{"42:0", Node{X: 42, Y: 0}},
		{"0b101:1", Node{X: 5, Y: 1}},
		{"0xff:7", Node{X: 0xff, Y: 7}},
		{" 0x10 : 2 ", Node{X: 0x10, Y: 2}},
		{"0:0", Node{X: 0, Y: 0}},
	}
	for _, c := range cases {
		got, err := g.ParseNode(c.in)
		if err != nil {
			t.Errorf("ParseNode(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseNode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestParseNodeErrors: every failure mode. Range violations — whether they
// overflow the machine integer or merely the topology — must share the one
// "out of range" diagnostic that names the real bounds; syntax errors keep
// their own messages.
func TestParseNodeErrors(t *testing.T) {
	g, err := New(3) // t = 8: x < 256, y < 8
	if err != nil {
		t.Fatal(err)
	}
	rangeCases := []string{
		"0:300",                    // y overflows uint8 — the reported bug
		"0:8",                      // y valid for uint8 but not the topology
		"0:18446744073709551616",   // y overflows uint64
		"256:0",                    // x valid for uint64 but not the topology
		"0x1ffffffffffffffffff:0",  // x overflows uint64
		"18446744073709551616:0",   // x overflows uint64, decimal
		"0xffffffffffffffff:65536", // both out of range
	}
	for _, in := range rangeCases {
		_, err := g.ParseNode(in)
		if err == nil {
			t.Errorf("ParseNode(%q): want error", in)
			continue
		}
		if !strings.Contains(err.Error(), "out of range for m=3") {
			t.Errorf("ParseNode(%q): want unified out-of-range error, got %v", in, err)
		}
		if !strings.Contains(err.Error(), "x < 2^8, y < 8") {
			t.Errorf("ParseNode(%q): bounds not spelled out: %v", in, err)
		}
	}
	syntaxCases := []string{
		"", ":", ":::", "12", "x:y", "0x:3", "-1:2", "0:-1", "1.5:2", "0x2a:0x", "a b:1",
	}
	for _, in := range syntaxCases {
		_, err := g.ParseNode(in)
		if err == nil {
			t.Errorf("ParseNode(%q): want error", in)
			continue
		}
		if strings.Contains(err.Error(), "out of range") {
			t.Errorf("ParseNode(%q): syntax error misreported as range: %v", in, err)
		}
	}
}

// TestParseNodeBoundsMatchContains: the printed bounds (x < 2^t, y < t) are
// exactly the Contains limits, for every supported m where x fits uint64.
func TestParseNodeBoundsMatchContains(t *testing.T) {
	for m := MinM; m <= 5; m++ {
		g, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		tt := g.T()
		// Largest valid node parses; one past each bound does not.
		if _, err := g.ParseNode(g.FormatNode(Node{X: 1<<uint(tt) - 1, Y: uint8(tt - 1)})); err != nil {
			t.Errorf("m=%d: max valid node rejected: %v", m, err)
		}
		if _, err := g.ParseNode(g.FormatNode(Node{X: 1 << uint(tt), Y: 0})); err == nil && tt < 64 {
			t.Errorf("m=%d: x = 2^t accepted", m)
		}
		if _, err := g.ParseNode(g.FormatNode(Node{X: 0, Y: uint8(tt)})); err == nil {
			t.Errorf("m=%d: y = t accepted", m)
		}
	}
}

// TestFormatParseRoundTrip: FormatNode→ParseNode is the identity over every
// valid node for small m.
func TestFormatParseRoundTrip(t *testing.T) {
	for m := 1; m <= 2; m++ {
		g, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		tt := g.T()
		for x := uint64(0); x < 1<<uint(tt); x++ {
			for y := 0; y < tt; y++ {
				u := Node{X: x, Y: uint8(y)}
				back, err := g.ParseNode(g.FormatNode(u))
				if err != nil {
					t.Fatalf("m=%d: round trip of %v failed: %v", m, u, err)
				}
				if back != u {
					t.Fatalf("m=%d: round trip %v -> %q -> %v", m, u, g.FormatNode(u), back)
				}
			}
		}
	}
}

// wireSink keeps FormatNodeWire's result alive so its allocation counts.
var wireSink string

// TestFormatNodeWireMatchesFmt: the strconv renderer writes exactly what
// fmt's "%#x:%d" writes, at the X extremes and a random X, for every
// processor address of every supported topology, and FormatNodeWire costs
// one allocation.
func TestFormatNodeWireMatchesFmt(t *testing.T) {
	xs := []uint64{0, 1, ^uint64(0), rand.New(rand.NewSource(1)).Uint64()}
	for _, x := range xs {
		for y := 0; y < 1<<MaxM; y++ {
			u := Node{X: x, Y: uint8(y)}
			want := fmt.Sprintf("%#x:%d", u.X, u.Y)
			if got := FormatNodeWire(u); got != want {
				t.Errorf("FormatNodeWire(%v) = %q, want %q", u, got, want)
			}
			if got := string(AppendNodeWire([]byte("pre "), u)); got != "pre "+want {
				t.Errorf("AppendNodeWire(%v) = %q, want %q", u, got, "pre "+want)
			}
		}
	}
	u := Node{X: ^uint64(0), Y: 63}
	if got := testing.AllocsPerRun(100, func() { wireSink = FormatNodeWire(u) }); got != 1 {
		t.Errorf("FormatNodeWire allocates %.1f times, want 1", got)
	}
}

// nodeSink keeps ParseNodeWire's result alive so the call is not elided.
var nodeSink Node

// TestParseNodeWireAllocFree: parsing a valid wire address, the v1
// client's per-node work, allocates nothing; so does the topology-checked
// ParseNode on the same text.
func TestParseNodeWireAllocFree(t *testing.T) {
	g, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	s := FormatNodeWire(Node{X: 0xdeadbeefcafe, Y: 42})
	if got := testing.AllocsPerRun(100, func() { nodeSink, _ = ParseNodeWire(s) }); got != 0 {
		t.Errorf("ParseNodeWire(%q) allocates %.1f times, want 0", s, got)
	}
	if got := testing.AllocsPerRun(100, func() { nodeSink, _ = g.ParseNode(s) }); got != 0 {
		t.Errorf("ParseNode(%q) allocates %.1f times, want 0", s, got)
	}
}

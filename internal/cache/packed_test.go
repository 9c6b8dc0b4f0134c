package cache

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hhc"
)

// TestReplayMatchesMapping: for seeded pairs at every supported m, the
// replayed answer — the miss leader's own construction, a hit through
// Paths and a hit through Lookup — equals the direct construction, and so
// does the answer to an X-translate of each pair served from the same
// entry.
func TestReplayMatchesMapping(t *testing.T) {
	for m := hhc.MinM; m <= hhc.MaxM; m++ {
		g := mustGraph(t, m)
		c := mustCache(t, g, Options{})
		for _, p := range gen.Pairs(g, 12, gen.Uniform, int64(m)) {
			a := uint64(0x9e3779b97f4a7c15)
			if g.T() < 64 {
				a &= 1<<uint(g.T()) - 1
			}
			twin := core.Pair{U: hhc.Node{X: p.U.X ^ a, Y: p.U.Y}, V: hhc.Node{X: p.V.X ^ a, Y: p.V.Y}}
			for _, q := range []core.Pair{{U: p.U, V: p.V}, twin} {
				want, err := core.DisjointPathsOpt(g, q.U, q.V, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ { // miss (or translate hit), then hit
					got, err := c.Paths(q.U, q.V, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("m=%d pass %d %s -> %s: Paths differs from the direct construction",
							m, pass, g.FormatNode(q.U), g.FormatNode(q.V))
					}
				}
				hit, ok := c.Lookup(q.U, q.V, core.Options{})
				if !ok {
					t.Fatalf("m=%d: Lookup missed a stored pair", m)
				}
				if got := hit.AppendPaths(nil, q.U); !reflect.DeepEqual(got, want) {
					t.Fatalf("m=%d %s -> %s: replayed Lookup differs from the direct construction",
						m, g.FormatNode(q.U), g.FormatNode(q.V))
				}
			}
		}
	}
}

// TestPackRejectsBrokenContainer: a container pack could not replay
// faithfully is an error, never an entry.
func TestPackRejectsBrokenContainer(t *testing.T) {
	g := mustGraph(t, 3)
	u, v := hhc.Node{X: 0x21, Y: 1}, hhc.Node{X: 0xc4, Y: 6}
	paths, err := core.DisjointPathsOpt(g, u, v, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pack(u, paths); err != nil {
		t.Fatalf("valid container rejected: %v", err)
	}
	clone := func() [][]hhc.Node {
		out := make([][]hhc.Node, len(paths))
		for i, p := range paths {
			out[i] = append([]hhc.Node(nil), p...)
		}
		return out
	}
	for _, tc := range []struct {
		name, want string
		broken     func([][]hhc.Node) [][]hhc.Node
	}{
		{"non-adjacent step", "not adjacent", func(ps [][]hhc.Node) [][]hhc.Node {
			ps[2] = append(ps[2][:1:1], ps[2][2:]...) // skip one node
			return ps
		}},
		{"single-node path", "want at least 2", func(ps [][]hhc.Node) [][]hhc.Node {
			ps[1] = ps[1][:1]
			return ps
		}},
		{"foreign start", "starts at", func(ps [][]hhc.Node) [][]hhc.Node {
			ps[0] = ps[0][1:]
			return ps
		}},
	} {
		_, err := pack(u, tc.broken(clone()))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: pack error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestPackedEntryExactSize: a stored entry is allocated once at its final
// size: one count byte, then per path its uvarint move count and one byte
// per move.
func TestPackedEntryExactSize(t *testing.T) {
	for _, m := range []int{2, 6} {
		g := mustGraph(t, m)
		c := mustCache(t, g, Options{})
		for _, p := range gen.Pairs(g, 16, gen.CrossCube, 5) {
			paths, err := c.Paths(p.U, p.V, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			hit, ok := c.Lookup(p.U, p.V, core.Options{})
			if !ok {
				t.Fatal("Lookup missed a stored pair")
			}
			want := 1
			for _, path := range paths {
				want += uvarintLen(uint64(len(path)-1)) + len(path) - 1
			}
			if len(hit.b) != want || cap(hit.b) != want {
				t.Fatalf("m=%d: entry len %d cap %d, want both %d", m, len(hit.b), cap(hit.b), want)
			}
		}
	}
}

// FuzzPackReplay: any walk packs, replays from its source unchanged, and
// replays from the image of its source under a translation automorphism
// as the walk's image — the property that lets one entry answer every
// translate of a pair.
func FuzzPackReplay(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 9, 3, 0, 9, 1, 1}, uint8(2), uint64(0x5), uint8(1), uint64(0xa), uint8(3))
	f.Add([]byte{6, 6, 0, 5, 7, 2, 6}, uint8(5), ^uint64(0), uint8(63), uint64(1), uint8(17))
	f.Fuzz(func(t *testing.T, walk []byte, mSel uint8, x uint64, y uint8, a uint64, b uint8) {
		g, err := hhc.New(hhc.MinM + int(mSel)%hhc.MaxM)
		if err != nil {
			t.Fatal(err)
		}
		m, tt := g.M(), g.T()
		if tt < 64 {
			x &= 1<<uint(tt) - 1
			a &= 1<<uint(tt) - 1
		}
		u := hhc.Node{X: x, Y: y % uint8(tt)}
		// Byte k%(m+2) picks local bit k for k < m, the external edge for
		// m, and ends the current path for m+1.
		var paths [][]hhc.Node
		cur := []hhc.Node{u}
		for _, k := range walk {
			switch at := cur[len(cur)-1]; {
			case int(k)%(m+2) < m:
				cur = append(cur, g.LocalNeighbor(at, int(k)%(m+2)))
			case int(k)%(m+2) == m:
				cur = append(cur, g.ExternalNeighbor(at))
			case len(cur) > 1 && len(paths) < 0xff:
				paths = append(paths, cur)
				cur = []hhc.Node{u}
			}
		}
		if len(cur) > 1 && len(paths) < 0xff {
			paths = append(paths, cur)
		}
		p, err := pack(u, paths)
		if err != nil {
			t.Fatalf("pack rejected a walk: %v", err)
		}
		if len(p.b) != cap(p.b) {
			t.Fatalf("entry len %d cap %d", len(p.b), cap(p.b))
		}
		if got := p.AppendPaths(nil, u); len(paths) > 0 && !reflect.DeepEqual(got, paths) {
			t.Fatalf("replay from the source differs:\n got %v\nwant %v", got, paths)
		}
		aut, err := g.NewAutomorphism(a, b%uint8(tt))
		if err != nil {
			t.Fatal(err)
		}
		got := p.AppendPaths(nil, aut.Apply(u))
		for i, path := range paths {
			if want := aut.ApplyPath(path); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("path %d: replay from the image differs:\n got %v\nwant %v", i, got[i], want)
			}
		}
	})
}

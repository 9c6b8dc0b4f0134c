package cluster

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/hhc"
)

// testPeers fabricates n distinct peer addresses.
func testPeers(n int) []string {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("10.0.0.%d:9%03d", i+1, i)
	}
	return peers
}

// sampleKeys yields a deterministic, well-spread set of query pairs for an
// m=3 topology (X in [0,256), Y in [0,8)): a Weyl sequence through the
// avalanche mix, so near-every sample is a distinct canonical class.
func sampleKeys(n int) [][2]hhc.Node {
	pairs := make([][2]hhc.Node, 0, n)
	for i := 0; len(pairs) < n; i++ {
		h := finalize(uint64(i)*0x9e3779b97f4a7c15 + 0x1234567)
		u := hhc.Node{X: h & 0xff, Y: uint8((h >> 8) & 7)}
		v := hhc.Node{X: (h >> 16) & 0xff, Y: uint8((h >> 24) & 7)}
		if u == v {
			continue
		}
		pairs = append(pairs, [2]hhc.Node{u, v})
	}
	return pairs
}

// TestRingDistribution pins the skew bound virtual nodes buy: across 3, 5,
// and 8 peers, both the analytic hash-circle shares and the ownership of a
// concrete key sample must stay within a modest max/min ratio.
func TestRingDistribution(t *testing.T) {
	const maxSkew = 3.0
	keys := sampleKeys(4096)
	for _, n := range []int{3, 5, 8} {
		r := NewRing(testPeers(n), 0)

		shares := r.Shares()
		minS, maxS, sum := shares[0], shares[0], 0.0
		for _, s := range shares {
			if s < minS {
				minS = s
			}
			if s > maxS {
				maxS = s
			}
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("n=%d: shares sum to %g, want 1", n, sum)
		}
		if ratio := maxS / minS; ratio > maxSkew {
			t.Errorf("n=%d: hash-circle share skew %.2f (max %g, min %g) exceeds %g",
				n, ratio, maxS, minS, maxSkew)
		}

		counts := make([]int, n)
		for _, k := range keys {
			counts[r.Owner(k[0], k[1])]++
		}
		minC, maxC := counts[0], counts[0]
		for _, c := range counts {
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		if minC == 0 {
			t.Fatalf("n=%d: a peer owns none of %d sampled keys: %v", n, len(keys), counts)
		}
		if ratio := float64(maxC) / float64(minC); ratio > maxSkew {
			t.Errorf("n=%d: sampled ownership skew %.2f (%v) exceeds %g", n, ratio, counts, maxSkew)
		}
	}
}

// TestRingDeterministic pins that the ring is a pure function of its
// inputs: same peers, same vnodes, same ownership on every peer.
func TestRingDeterministic(t *testing.T) {
	peers := testPeers(5)
	a, b := NewRing(peers, 32), NewRing(peers, 32)
	for _, k := range sampleKeys(512) {
		if a.Owner(k[0], k[1]) != b.Owner(k[0], k[1]) {
			t.Fatalf("owner of %v differs between identically built rings", k)
		}
	}
}

// TestRingMinimalMovement pins the consistent-hashing contract: adding a
// peer only moves keys onto the new peer (existing points are untouched,
// so no key can move between two surviving peers), and the moved fraction
// is near the new peer's fair share.
func TestRingMinimalMovement(t *testing.T) {
	keys := sampleKeys(4096)
	for _, n := range []int{3, 5, 8} {
		peers := testPeers(n + 1)
		oldRing := NewRing(peers[:n], 0)
		newRing := NewRing(peers, 0)
		moved := 0
		for _, k := range keys {
			before, after := oldRing.Owner(k[0], k[1]), newRing.Owner(k[0], k[1])
			if before == after {
				continue
			}
			if after != n {
				t.Fatalf("n=%d: key %v moved from peer %d to surviving peer %d; only moves onto the new peer are allowed",
					n, k, before, after)
			}
			moved++
		}
		frac := float64(moved) / float64(len(keys))
		fair := 1.0 / float64(n+1)
		if frac > 2.5*fair {
			t.Errorf("n=%d: %.1f%% of keys moved on peer add, want near fair share %.1f%%",
				n, 100*frac, 100*fair)
		}
		if moved == 0 {
			t.Errorf("n=%d: no key moved onto the added peer", n)
		}
	}
}

// TestRingRemovalMovement is the symmetric property: removing a peer only
// reassigns that peer's keys.
func TestRingRemovalMovement(t *testing.T) {
	keys := sampleKeys(2048)
	peers := testPeers(5)
	full := NewRing(peers, 0)
	// Remove the last peer (so surviving indices align between rings).
	reduced := NewRing(peers[:4], 0)
	for _, k := range keys {
		before, after := full.Owner(k[0], k[1]), reduced.Owner(k[0], k[1])
		if before != 4 && before != after {
			t.Fatalf("key %v moved from surviving peer %d to %d on removal of peer 4",
				k, before, after)
		}
	}
}

// TestKeyHashCanonical pins that the ring key is the X-translation class:
// X-translating both endpoints by the same offset never changes the hash
// (those requests share a cache entry on the owner), while genuinely
// different pairs hash apart.
func TestKeyHashCanonical(t *testing.T) {
	u := hhc.Node{X: 0x2b, Y: 3}
	v := hhc.Node{X: 0x91, Y: 6}
	base := KeyHash(u, v)
	for _, tr := range []uint64{1, 0x10, 0x55, 0xff} {
		tu := hhc.Node{X: u.X ^ tr, Y: u.Y}
		tv := hhc.Node{X: v.X ^ tr, Y: v.Y}
		if KeyHash(tu, tv) != base {
			t.Fatalf("X-translate by %#x changed the key hash", tr)
		}
	}
	if KeyHash(v, u) == base {
		t.Error("reversed pair unexpectedly hashed identically (distinct canonical class)")
	}
	if KeyHash(hhc.Node{X: u.X, Y: u.Y ^ 1}, v) == base {
		t.Error("different source position unexpectedly hashed identically")
	}
}

// TestParsePeers pins the typed validation error hhcd's flag handling
// relies on.
func TestParsePeers(t *testing.T) {
	got, err := ParsePeers("a:1, b:2 ,c:3")
	if err != nil {
		t.Fatalf("valid list: %v", err)
	}
	if len(got) != 3 || got[0] != "a:1" || got[1] != "b:2" || got[2] != "c:3" {
		t.Fatalf("parsed %v", got)
	}
	for _, bad := range []string{"", "  ", "a:1,,b:2", "a:1,b", "noport", "a:1,a:1", ":5", "x:"} {
		if _, err := ParsePeers(bad); !errors.Is(err, ErrBadPeers) {
			t.Errorf("ParsePeers(%q) = %v, want ErrBadPeers", bad, err)
		}
	}
}

// TestNewValidation pins membership validation.
func TestNewValidation(t *testing.T) {
	peers := testPeers(3)
	for _, tc := range []Config{
		{Peers: peers[:1], Self: 0},
		{Peers: peers, Self: -1},
		{Peers: peers, Self: 3},
		{Peers: []string{"a:1", "a:1", "b:2"}, Self: 0},
	} {
		if _, err := New(tc); !errors.Is(err, ErrBadPeers) {
			t.Errorf("New(%+v) = %v, want ErrBadPeers", tc, err)
		}
	}
	c, err := New(Config{Peers: peers, Self: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Self() != peers[1] {
		t.Fatalf("Self() = %q, want %q", c.Self(), peers[1])
	}
}

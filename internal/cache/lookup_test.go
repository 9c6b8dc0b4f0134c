package cache

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hhc"
)

// mapped applies a Lookup result the way a read-only caller does.
func mapped(hit Packed, u hhc.Node) [][]hhc.Node {
	return hit.AppendPaths(nil, u)
}

// TestLookupMatchesPaths: under every canonicalization mode, a warmed
// pair's Lookup result, mapped through its automorphism, equals what Paths
// returns for the same pair, and so does an X-translated twin's (which
// shares the entry unless canonicalization is off); both are verified
// containers.
func TestLookupMatchesPaths(t *testing.T) {
	g := mustGraph(t, 3)
	for _, mode := range []Canon{CanonExact, CanonFull, CanonOff} {
		t.Run(mode.String(), func(t *testing.T) {
			c := mustCache(t, g, Options{Canon: mode})
			for _, p := range gen.Pairs(g, 24, gen.Uniform, 7) {
				twin := core.Pair{U: hhc.Node{X: p.U.X ^ 0x30, Y: p.U.Y}, V: hhc.Node{X: p.V.X ^ 0x30, Y: p.V.Y}}
				for _, q := range []core.Pair{{U: p.U, V: p.V}, twin} {
					want, err := c.Paths(q.U, q.V, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					hit, ok := c.Lookup(q.U, q.V, core.Options{})
					if !ok {
						t.Fatalf("%s -> %s: miss right after Paths", g.FormatNode(q.U), g.FormatNode(q.V))
					}
					got := mapped(hit, q.U)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s -> %s: mapped Lookup differs from Paths", g.FormatNode(q.U), g.FormatNode(q.V))
					}
					if err := core.VerifyContainer(g, q.U, q.V, got); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestLookupCountsOneHit: a hit counts exactly one hit and no miss; a miss
// counts nothing (the caller's fallback to Paths counts it); invalid
// pairs miss without touching the counters.
func TestLookupCountsOneHit(t *testing.T) {
	g := mustGraph(t, 3)
	c := mustCache(t, g, Options{})
	u, v := hhc.Node{X: 0x21, Y: 1}, hhc.Node{X: 0xc4, Y: 6}
	if _, ok := c.Lookup(u, v, core.Options{}); ok {
		t.Fatal("cold Lookup hit")
	}
	if snap := c.Snapshot(); snap.Lookups() != 0 {
		t.Fatalf("cold Lookup counted: %v", snap)
	}
	if _, err := c.Paths(u, v, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(u, v, core.Options{}); !ok {
		t.Fatal("warm Lookup missed")
	}
	if snap := c.Snapshot(); snap.Hits != 1 || snap.Misses != 1 || snap.InflightWaits != 0 {
		t.Fatalf("after Paths+Lookup: %v, want hits=1 misses=1", snap)
	}
	for _, bad := range [][2]hhc.Node{{u, u}, {hhc.Node{X: 1 << 20}, v}} {
		if _, ok := c.Lookup(bad[0], bad[1], core.Options{}); ok {
			t.Fatalf("invalid pair %v hit", bad)
		}
	}
	if snap := c.Snapshot(); snap.Lookups() != 2 {
		t.Fatalf("invalid pairs touched the counters: %v", snap)
	}
}

// TestLookupSkipsInflight: while a construction of the key is in flight,
// Lookup reports a miss at once — it never joins the singleflight — and
// counts nothing, whereas Paths on the same key waits for the builder.
func TestLookupSkipsInflight(t *testing.T) {
	g := mustGraph(t, 3)
	c := mustCache(t, g, Options{})
	u, v := hhc.Node{X: 0x05, Y: 2}, hhc.Node{X: 0x9a, Y: 7}
	cu, cv, _, err := c.canonicalize(u, v, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := c.keyFor(cu, cv, core.Options{})
	s := c.shardFor(k)
	building := &call{done: make(chan struct{})}
	s.mu.Lock()
	s.inflight[k] = building
	s.mu.Unlock()

	looked := make(chan bool, 1)
	go func() {
		_, ok := c.Lookup(u, v, core.Options{})
		looked <- ok
	}()
	select {
	case ok := <-looked:
		if ok {
			t.Fatal("Lookup hit a key that is only in flight")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Lookup blocked on an in-flight construction")
	}
	if snap := c.Snapshot(); snap.Lookups() != 0 {
		t.Fatalf("in-flight Lookup counted: %v", snap)
	}

	// Paths joins the construction and returns only once it completes.
	joined := make(chan error, 1)
	go func() {
		_, err := c.Paths(u, v, core.Options{})
		joined <- err
	}()
	for c.Snapshot().InflightWaits == 0 {
		time.Sleep(time.Millisecond)
	}
	paths, err := core.DisjointPathsOpt(g, cu, cv, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	building.moves, building.err = pack(cu, paths)
	s.mu.Lock()
	delete(s.inflight, k)
	s.insert(k, building.moves, c.perShard, &c.counters)
	s.mu.Unlock()
	close(building.done)
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(u, v, core.Options{}); !ok {
		t.Fatal("Lookup missed after the construction was stored")
	}
}

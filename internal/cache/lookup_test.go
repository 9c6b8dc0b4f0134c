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

// TestLookupMatchesPaths: a warmed pair's Lookup result, replayed from its
// source, equals what Paths returns for the same pair, and so does an
// X-translated twin's (which shares the entry); both are verified
// containers.
func TestLookupMatchesPaths(t *testing.T) {
	// "exact" names the cache's one key, the exact X-translation class.
	t.Run("exact", func(t *testing.T) {
		g := mustGraph(t, 3)
		c := mustCache(t, g, Options{})
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
	k := keyFor(u, v, core.Options{})
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
	paths, err := core.DisjointPathsOpt(g, u, v, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	building.moves, building.err = pack(u, paths)
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

// TestWarmLookupAllocFree: at m=6 a warm Lookup replayed into reused
// scratch allocates nothing, and it answers two X-translates of the stored
// pair exactly as the direct construction does: the class key adds no
// work to the hit path.
func TestWarmLookupAllocFree(t *testing.T) {
	g := mustGraph(t, 6)
	c := mustCache(t, g, Options{})
	u, v := hhc.Node{X: 0x0123_4567_89ab_cdef, Y: 5}, hhc.Node{X: 0xfedc_ba98_7654_3210, Y: 42}
	if _, err := c.Paths(u, v, core.Options{}); err != nil {
		t.Fatal(err)
	}
	var scratch [][]hhc.Node
	for _, a := range []uint64{0x8000_0000_0000_0001, 0x0f0f_0f0f_f0f0_f0f0} {
		tu, tv := hhc.Node{X: u.X ^ a, Y: u.Y}, hhc.Node{X: v.X ^ a, Y: v.Y}
		want, err := core.DisjointPathsOpt(g, tu, tv, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hit, ok := c.Lookup(tu, tv, core.Options{})
		if !ok {
			t.Fatalf("translate a=%#x missed the stored class", a)
		}
		scratch = hit.AppendPaths(scratch[:0], tu)
		if !reflect.DeepEqual(scratch, want) {
			t.Fatalf("translate a=%#x: replayed Lookup differs from the direct construction", a)
		}
		allocs := testing.AllocsPerRun(100, func() {
			hit, ok := c.Lookup(tu, tv, core.Options{})
			if !ok {
				t.Fatal("warm Lookup missed")
			}
			scratch = hit.AppendPaths(scratch[:0], tu)
		})
		if allocs != 0 {
			t.Fatalf("translate a=%#x: warm Lookup+AppendPaths made %.1f allocs/op, want 0", a, allocs)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("%d entries for one class, want 1", c.Len())
	}
}

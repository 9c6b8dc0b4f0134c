package cache

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hhc"
)

func mustGraph(t *testing.T, m int) *hhc.Graph {
	t.Helper()
	g, err := hhc.New(m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustCache(t *testing.T, g *hhc.Graph, opts Options) *Cache {
	t.Helper()
	c, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestExactCanonBitIdentical: keyed by the X-translation class, cached
// results — first request (miss) and repeat (hit) alike — are byte-for-byte
// the direct DisjointPathsOpt output. Exhaustive over all pairs for m=2,
// randomized for m=3 and 4, across all order strategies.
func TestExactCanonBitIdentical(t *testing.T) {
	strategies := []core.OrderStrategy{core.OrderAscending, core.OrderGray, core.OrderNearest}
	check := func(t *testing.T, g *hhc.Graph, c *Cache, u, v hhc.Node, opt core.Options) {
		t.Helper()
		want, err := core.DisjointPathsOpt(g, u, v, opt)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // miss then hit
			got, err := c.Paths(u, v, opt)
			if err != nil {
				t.Fatalf("%s -> %s pass %d: %v", g.FormatNode(u), g.FormatNode(v), pass, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s -> %s pass %d: cached container differs from direct construction",
					g.FormatNode(u), g.FormatNode(v), pass)
			}
			if err := core.VerifyContainer(g, u, v, got); err != nil {
				t.Fatal(err)
			}
		}
	}

	g2 := mustGraph(t, 2)
	n, _ := g2.NumNodes()
	for _, strat := range strategies {
		c := mustCache(t, g2, Options{})
		opt := core.Options{Order: strat}
		for a := uint64(0); a < n; a++ {
			for b := uint64(0); b < n; b++ {
				if a == b {
					continue
				}
				check(t, g2, c, g2.NodeFromID(a), g2.NodeFromID(b), opt)
			}
		}
		if snap := c.Snapshot(); snap.Hits == 0 || snap.Misses == 0 {
			t.Fatalf("strategy %v: degenerate counters %v", strat, snap)
		}
	}

	for _, m := range []int{3, 4} {
		g := mustGraph(t, m)
		c := mustCache(t, g, Options{})
		r := rand.New(rand.NewSource(int64(m)))
		for trial := 0; trial < 120; trial++ {
			u, v := g.RandomNode(r), g.RandomNode(r)
			if u == v {
				continue
			}
			check(t, g, c, u, v, core.Options{Order: strategies[trial%len(strategies)]})
		}
	}
}

// TestExactCanonSharesTranslates: all X-translates of one pair occupy a
// single entry, and each translate is answered correctly from it.
func TestExactCanonSharesTranslates(t *testing.T) {
	g := mustGraph(t, 3)
	c := mustCache(t, g, Options{})
	base := core.Pair{U: hhc.Node{X: 0x12, Y: 1}, V: hhc.Node{X: 0xe7, Y: 5}}
	for a := uint64(0); a < 1<<uint(g.T()); a++ {
		u := hhc.Node{X: base.U.X ^ a, Y: base.U.Y}
		v := hhc.Node{X: base.V.X ^ a, Y: base.V.Y}
		paths, err := c.Paths(u, v, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := core.VerifyContainer(g, u, v, paths); err != nil {
			t.Fatalf("translate a=%#x: %v", a, err)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("%d entries for 256 translated requests, want 1", c.Len())
	}
	snap := c.Snapshot()
	if snap.Misses != 1 || snap.Hits != 255 {
		t.Fatalf("counters %v, want 1 miss + 255 hits", snap)
	}
}

// TestStrategyKeysSeparate: the same pair under different strategies must
// not share an entry (their containers differ).
func TestStrategyKeysSeparate(t *testing.T) {
	g := mustGraph(t, 4)
	c := mustCache(t, g, Options{})
	u, v := hhc.Node{X: 0x0001, Y: 2}, hhc.Node{X: 0xbeef, Y: 7}
	for _, opt := range []core.Options{
		{Order: core.OrderAscending},
		{Order: core.OrderGray},
		{Order: core.OrderNearest},
		{Order: core.OrderGray, Detour: core.DetourNearest},
	} {
		want, err := core.DisjointPathsOpt(g, u, v, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Paths(u, v, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("opt %+v: wrong container served", opt)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("%d entries, want 4 (one per option set)", c.Len())
	}
}

// TestLRUEviction: capacity is enforced per shard with LRU order, and the
// eviction counter advances.
func TestLRUEviction(t *testing.T) {
	g := mustGraph(t, 3)
	// One shard, room for exactly 2 entries.
	c := mustCache(t, g, Options{Shards: 1, Capacity: 2})
	mk := func(y uint8) core.Pair {
		return core.Pair{U: hhc.Node{X: 0, Y: y}, V: hhc.Node{X: 0xff, Y: y}}
	}
	p0, p1, p2 := mk(0), mk(1), mk(2)
	for _, p := range []core.Pair{p0, p1} {
		if _, err := c.Paths(p.U, p.V, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch p0 so p1 is the LRU victim.
	if _, err := c.Paths(p0.U, p0.V, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Paths(p2.U, p2.V, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	snap := c.Snapshot()
	if snap.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", snap.Evictions)
	}
	// p0 must still be resident (hit), p1 evicted (miss).
	before := c.Snapshot().Hits
	if _, err := c.Paths(p0.U, p0.V, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Hits != before+1 {
		t.Fatal("recently-used entry was evicted")
	}
	missesBefore := c.Snapshot().Misses
	if _, err := c.Paths(p1.U, p1.V, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Misses != missesBefore+1 {
		t.Fatal("LRU victim still resident")
	}
}

// TestCallerOwnsResult: mutating a returned container never corrupts what
// later callers receive.
func TestCallerOwnsResult(t *testing.T) {
	g := mustGraph(t, 3)
	c := mustCache(t, g, Options{})
	u, v := hhc.Node{X: 0x01, Y: 0}, hhc.Node{X: 0xfe, Y: 7}
	first, err := c.Paths(u, v, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		for j := range first[i] {
			first[i][j] = hhc.Node{X: 0xdead, Y: 0}
		}
	}
	second, err := c.Paths(u, v, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyContainer(g, u, v, second); err != nil {
		t.Fatalf("cache entry corrupted by caller mutation: %v", err)
	}
}

// TestBypassInvalidRequests: invalid pairs skip the cache and report the
// construction's own errors, without disturbing counters or entries.
func TestBypassInvalidRequests(t *testing.T) {
	g := mustGraph(t, 3)
	c := mustCache(t, g, Options{})
	u := hhc.Node{X: 0x01, Y: 0}
	if _, err := c.Paths(u, u, core.Options{}); !errors.Is(err, core.ErrSameNode) {
		t.Fatalf("same node: %v", err)
	}
	if _, err := c.Paths(hhc.Node{X: 1 << 20, Y: 0}, u, core.Options{}); err == nil {
		t.Fatal("invalid node accepted")
	}
	snap := c.Snapshot()
	if snap.Lookups() != 0 || c.Len() != 0 {
		t.Fatalf("invalid requests touched the cache: %v len=%d", snap, c.Len())
	}
}

// TestBatchThroughCache: Cache.Batch matches core.DisjointPathsBatch
// results exactly and passes BatchVerify.
func TestBatchThroughCache(t *testing.T) {
	g := mustGraph(t, 3)
	c := mustCache(t, g, Options{})
	pairs := gen.Pairs(g, 100, gen.Uniform, 7)
	// Duplicate the workload so the second half hits.
	pairs = append(pairs, pairs...)
	var reqs []core.Pair
	for _, p := range pairs {
		reqs = append(reqs, core.Pair{U: p.U, V: p.V})
	}
	direct := core.DisjointPathsBatch(g, reqs, core.Options{}, 4)
	cached := c.Batch(reqs, core.Options{}, 4)
	if err := core.BatchVerify(g, cached); err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if (direct[i].Err == nil) != (cached[i].Err == nil) {
			t.Fatalf("item %d: error mismatch %v vs %v", i, direct[i].Err, cached[i].Err)
		}
		if !reflect.DeepEqual(direct[i].Paths, cached[i].Paths) {
			t.Fatalf("item %d: cached batch result differs from direct", i)
		}
	}
	if snap := c.Snapshot(); snap.Hits+snap.InflightWaits == 0 {
		t.Fatalf("duplicated workload produced no hits: %v", snap)
	}
}

// TestConstructorForeignGraph: a constructor invoked with a topology of a
// different m bypasses the cache rather than serving wrong-size containers.
func TestConstructorForeignGraph(t *testing.T) {
	g3, g2 := mustGraph(t, 3), mustGraph(t, 2)
	c := mustCache(t, g3, Options{})
	construct := c.Constructor()
	u, v := hhc.Node{X: 0x1, Y: 0}, hhc.Node{X: 0xe, Y: 2}
	paths, err := construct(g2, u, v, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyContainer(g2, u, v, paths); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("foreign-graph request was cached")
	}
}

// TestOptionsValidation: New rejects nonsense configurations.
func TestOptionsValidation(t *testing.T) {
	g := mustGraph(t, 2)
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(g, Options{Shards: -3}); err == nil {
		t.Error("negative shard count accepted")
	}
	c := mustCache(t, g, Options{Shards: 5}) // rounds up to 8
	if len(c.shards) != 8 {
		t.Errorf("shards = %d, want 8", len(c.shards))
	}
}

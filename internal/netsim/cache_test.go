package netsim

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/hhc"
)

// TestRunWithCacheMatchesDirect: a cached simulation run is bit-identical
// to an uncached one (the cache preserves the constructed containers
// byte-for-byte), and the cache actually absorbs repeated
// constructions across runs.
func TestRunWithCacheMatchesDirect(t *testing.T) {
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(g, cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []RoutingMode{MultiPathStripe, FaultAwareSingle} {
		cfg := Config{
			M: 3, Mode: mode, Flows: 16, MessagesPerFlow: 10,
			MessageFlits: 64, ArrivalRate: 0.01, FaultCount: 2, Seed: 5,
		}
		direct, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = c
		cached, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, cached) {
			t.Fatalf("mode %v: cached run diverged\ndirect: %+v\ncached: %+v", mode, direct, cached)
		}
		// Same config again: every container now comes from the cache.
		misses := c.Snapshot().Misses
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot().Misses; got != misses {
			t.Fatalf("mode %v: repeat run missed %d times", mode, got-misses)
		}
	}
	if snap := c.Snapshot(); snap.Hits == 0 {
		t.Fatalf("cache never hit: %v", snap)
	}
}

// TestValidateCacheMismatch: a cache bound to the wrong topology is
// rejected up front.
func TestValidateCacheMismatch(t *testing.T) {
	g2, err := hhc.New(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(g2, cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		M: 3, Mode: MultiPathStripe, Flows: 2, MessagesPerFlow: 1,
		MessageFlits: 8, ArrivalRate: 0.1, Cache: c,
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("mismatched cache accepted")
	}
}

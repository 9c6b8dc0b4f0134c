package main

import (
	"context"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pathsvc"
)

// The same seed gives the same request stream; another seed another one.
func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, err := newInputs(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newInputs(w, 11)
		c, _ := newInputs(w, 12)
		differs := false
		for k := int64(0); k < 5000; k++ {
			if a.pair(k) != b.pair(k) || a.key(k) != b.key(k) {
				t.Fatalf("%s: seed 11 request %d differs between two builds", w.name, k)
			}
			if a.pair(k) != c.pair(k) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 11 and 12 give the same stream", w.name)
		}
	}
}

// cold never repeats a canonical class (the cache's CanonExact key, which
// cluster.KeyHash hashes), so every request misses.
func TestColdNeverRepeatsClass(t *testing.T) {
	w, err := findWorkload("cold")
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]int64, 200000)
	for k := int64(0); k < 200000; k++ {
		p := in.pair(k)
		if p.U.X == p.V.X {
			t.Fatalf("request %d is not cross-cube", k)
		}
		h := cluster.KeyHash(p.U, p.V)
		if prev, ok := seen[h]; ok {
			t.Fatalf("requests %d and %d share a canonical class", prev, k)
		}
		seen[h] = k
	}
}

// After hot's set-up warm phase, its timed stream makes no cache misses,
// and every answer matches its reference.
func TestHotTimedPhaseAllHits(t *testing.T) {
	w, err := findWorkload("hot")
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := pathsvc.New(pathsvc.Config{M: w.m})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()

	b := &bench{w: w, in: in}
	if err := b.poolRefs(); err != nil {
		t.Fatal(err)
	}
	f := &fleet{}
	for _, proto := range w.protos {
		c, err := dialConn(ln.Addr().String(), proto, &f.redials, &f.errs)
		if err != nil {
			t.Fatal(err)
		}
		defer c.rc.Close()
		f.conns = append(f.conns, c)
	}
	// The warm phase of bench.setup.
	for _, c := range f.conns {
		var cursor atomic.Int64
		scr := make([]sendState, w.window)
		b.judgeAll(runCount(w.window, int64(len(in.pool)), &cursor, func(wk int, k int64) (int64, reply) {
			return k, c.paths(in.pool[k], "", &scr[wk])
		}), &b.untimed)
	}
	before := srv.CacheSnapshot()
	var cursor atomic.Int64
	const n = 20000
	samples := runCount(b.workers(), n, &cursor, b.sender(f, nil, false, nil))
	if ok := b.judgeAll(samples, &b.timed); ok != n {
		t.Fatalf("%d of %d answers correct:%s", ok, n, b.timed)
	}
	after := srv.CacheSnapshot()
	if misses := after.Misses - before.Misses; misses != 0 {
		t.Fatalf("timed phase made %d cache misses", misses)
	}
	if after.Hits == before.Hits {
		t.Fatal("timed phase made no cache hits")
	}
}

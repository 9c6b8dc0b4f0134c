package main

import (
	"fmt"
	"math/rand"

	"repro/internal/hhc"
	"repro/internal/pathsvc"
)

// workload is one traffic mix. README.md records why each was chosen.
type workload struct {
	name   string
	m      int
	protos []int // wire version per client connection (one entry per conn)
	window int   // requests in flight per connection
	// pool > 0 draws Zipf(zipfS)-popular pairs from a seeded pool of that
	// size; pool == 0 is a never-repeating stream of fresh pairs.
	pool  int
	zipfS float64
	// warm preloads every pool pair into the cache during set-up, so the
	// timed phases only hit.
	warm bool
	// peers is the number of hhcd processes (> 1 runs a cluster, one
	// client connection per peer).
	peers int
	// skip requests are sent before each closed-loop window and not timed.
	skip int
	// rate is the open-loop arrival rate in requests/s, about a third of
	// the closed-loop capacity measured on a 2-vCPU host: at half, the
	// p99 of consecutive runs varied by more than the regression bound.
	rate float64
}

var workloads = []workload{
	{name: "hot", m: 4, protos: []int{2, 2}, window: 32, pool: 1024, zipfS: 1.2, warm: true,
		peers: 1, skip: 20000, rate: 20000},
	{name: "cold", m: 6, protos: []int{2, 2}, window: 8,
		peers: 1, skip: 4096, rate: 1200},
	{name: "skew-mixed", m: 5, protos: []int{pathsvc.ProtocolVersion, 2}, window: 16, pool: 32768, zipfS: 1.1,
		peers: 1, skip: 8000, rate: 2500},
	{name: "cluster", m: 4, protos: []int{2, 2}, window: 32, pool: 1024, zipfS: 1.2, warm: true,
		peers: 2, skip: 20000, rate: 10000},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) conns() int { return len(w.protos) }

// streamLen bounds the pre-drawn popularity stream; longer runs wrap.
const streamLen = 1 << 20

// inputs is everything a workload sends, derived from the seed alone.
type inputs struct {
	w    workload
	g    *hhc.Graph
	seed int64
	pool []pathsvc.NodePair // popularity pool (nil for a fresh stream)
	idx  []int32            // Zipf draws into pool, in send order
}

func newInputs(w workload, seed int64) (*inputs, error) {
	g, err := hhc.New(w.m)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, g: g, seed: seed}
	if w.pool == 0 {
		return in, nil
	}
	r := rand.New(rand.NewSource(seed))
	in.pool = make([]pathsvc.NodePair, w.pool)
	for i := range in.pool {
		in.pool[i] = randomPair(g, r)
	}
	z := rand.NewZipf(r, w.zipfS, 1, uint64(w.pool-1))
	in.idx = make([]int32, streamLen)
	for i := range in.idx {
		in.idx[i] = int32(z.Uint64())
	}
	return in, nil
}

// randomPair draws a cross-cube pair (distinct son-cubes, so every query
// takes the construction's general case).
func randomPair(g *hhc.Graph, r *rand.Rand) pathsvc.NodePair {
	for {
		u, v := g.RandomNode(r), g.RandomNode(r)
		if u.X != v.X {
			return pathsvc.NodePair{U: u, V: v}
		}
	}
}

// key names request k's pair: its pool index, or k itself for a fresh
// stream.
func (in *inputs) key(k int64) int64 {
	if in.pool == nil {
		return k
	}
	return int64(in.idx[k%streamLen])
}

// pair returns the endpoints of request k.
func (in *inputs) pair(k int64) pathsvc.NodePair {
	if in.pool != nil {
		return in.pool[in.idx[k%streamLen]]
	}
	return in.freshPair(k)
}

// pairOfKey inverts key.
func (in *inputs) pairOfKey(key int64) pathsvc.NodePair {
	if in.pool != nil {
		return in.pool[key]
	}
	return in.freshPair(key)
}

// freshPair is a pure function of (seed, k): the fresh stream needs no
// state shared between senders and is identical across runs.
func (in *inputs) freshPair(k int64) pathsvc.NodePair {
	s := splitmix(uint64(in.seed)) + uint64(k)*0x9e3779b97f4a7c15
	next := func() uint64 { s = splitmix(s); return s }
	t := uint(in.g.T())
	node := func() hhc.Node {
		x := next()
		if t < 64 {
			x &= 1<<t - 1
		}
		return hhc.Node{X: x, Y: uint8(next() % uint64(t))}
	}
	for {
		if p := (pathsvc.NodePair{U: node(), V: node()}); p.U.X != p.V.X {
			return p
		}
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

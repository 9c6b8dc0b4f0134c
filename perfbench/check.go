package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hhc"
	"repro/internal/pathsvc"
)

// The answer checker. Every container the service returns is reduced to a
// hash of its paths and compared with the reference: direct
// core.DisjointPathsOpt output for the same pair, which itself must pass
// core.VerifyContainer within core.MaxLenBound. The service's cache runs
// with CanonExact, which promises bit-identical answers, so equality of
// hashes is the right test for every answer, cached or not.

// pathHasher accumulates an FNV-1a hash over a container: each node as
// (8-byte X, 1-byte Y), each path closed by a separator byte that no Y can
// take, so a path boundary cannot shift without changing the hash.
type pathHasher struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	pathSep   = 0xff
)

func newPathHasher() pathHasher { return pathHasher{h: fnvOffset} }

func (p *pathHasher) byte(b byte) {
	p.h ^= uint64(b)
	p.h *= fnvPrime
}

func (p *pathHasher) node(u hhc.Node) {
	x := u.X
	for i := 0; i < 8; i++ {
		p.byte(byte(x))
		x >>= 8
	}
	p.byte(u.Y)
}

func (p *pathHasher) endPath() { p.byte(pathSep) }

func hashPaths(paths [][]hhc.Node) uint64 {
	p := newPathHasher()
	for _, path := range paths {
		for _, u := range path {
			p.node(u)
		}
		p.endPath()
	}
	return p.h
}

// hashWirePaths hashes a v1 answer ("x:y" strings) without building node
// slices; it equals hashPaths of the parsed container.
func hashWirePaths(paths [][]string) (uint64, error) {
	p := newPathHasher()
	for _, path := range paths {
		for _, s := range path {
			u, err := hhc.ParseNodeWire(s)
			if err != nil {
				return 0, err
			}
			p.node(u)
		}
		p.endPath()
	}
	return p.h, nil
}

// answer is what the checker needs from one response. It holds no
// pointers, so the generator's garbage collector never scans the samples.
type answer struct {
	hash     uint64
	width    int32
	failed   bool // no answer: transport error, refusal, timeout or error code
	degraded bool
}

// verdict classifies one answer.
type verdict uint8

const (
	okAnswer     verdict = iota
	failError            // transport error, refusal, timeout, server error code
	failDegraded         // load shedding truncated the container (flagged)
	failShort            // fewer than m+1 paths without the degraded flag
	failWrong            // full width but not the reference container
	numVerdicts
)

var verdictNames = [numVerdicts]string{"ok", "error", "degraded", "short", "wrong"}

// judge compares one answer with the reference hash for its pair. ref is
// consulted only once the answer is otherwise well formed.
func judge(a answer, full int, ref uint64) verdict {
	switch {
	case a.failed:
		return failError
	case a.degraded:
		return failDegraded
	case int(a.width) != full:
		return failShort
	case a.hash != ref:
		return failWrong
	}
	return okAnswer
}

// tally counts verdicts. A failure of any kind counts against fail_share;
// short and wrong answers also make the run incorrect.
type tally [numVerdicts]int64

func (t *tally) add(o tally) {
	for i := range t {
		t[i] += o[i]
	}
}

func (t *tally) attempted() int64 {
	var n int64
	for _, c := range t {
		n += c
	}
	return n
}

func (t *tally) failed() int64 { return t.attempted() - t[okAnswer] }

func (t *tally) incorrect() int64 { return t[failShort] + t[failWrong] }

func (t tally) String() string {
	s := ""
	for i, c := range t {
		if c > 0 {
			s += fmt.Sprintf(" %s=%d", verdictNames[i], c)
		}
	}
	return s
}

// reference is one pair's reference container, kept as its hash: the
// containers of a 32768-pair pool would make the generator's own heap,
// and so its GC pauses, part of every latency it measures.
type reference struct {
	hash      uint64
	construct time.Duration // construction time, for the core replay
}

// buildReference constructs and verifies the reference container for p,
// timing the construction alone.
func buildReference(g *hhc.Graph, p pathsvc.NodePair) (reference, [][]hhc.Node, error) {
	start := time.Now()
	paths, err := core.DisjointPathsOpt(g, p.U, p.V, core.Options{})
	d := time.Since(start)
	if err != nil {
		return reference{}, nil, fmt.Errorf("reference %v->%v: %w", p.U, p.V, err)
	}
	if err := core.VerifyContainer(g, p.U, p.V, paths); err != nil {
		return reference{}, nil, fmt.Errorf("reference %v->%v: %w", p.U, p.V, err)
	}
	if l, bound := core.MaxLength(paths), core.MaxLenBound(g, p.U, p.V); l > bound {
		return reference{}, nil, fmt.Errorf("reference %v->%v: path length %d > bound %d", p.U, p.V, l, bound)
	}
	return reference{hash: hashPaths(paths), construct: d}, paths, nil
}

// refSet maps a request key (see inputs.key) to its reference.
type refSet map[int64]reference

// buildRefs adds references for keys not yet present.
func buildRefs(in *inputs, keys []int64, refs refSet) error {
	for _, k := range keys {
		if _, ok := refs[k]; ok {
			continue
		}
		r, _, err := buildReference(in.g, in.pairOfKey(k))
		if err != nil {
			return err
		}
		refs[k] = r
	}
	return nil
}

// sampledKey reports whether a fresh-stream key's answer is checked
// against a reference: a seeded 1-in-checkEvery sample, because building
// a reference costs as much as the request itself. Pooled workloads check
// every answer.
const checkEvery = 8

func sampledKey(seed, key int64) bool {
	return splitmix(uint64(seed)^uint64(key)*0xd1b54a32d192ed03)%checkEvery == 0
}

// recorded is one answer kept for a check after the timed window.
type recorded struct {
	key   int64
	a     answer
	timed bool // counts in the timed tally
}

package obs

import (
	"strconv"
	"sync"
)

// This file attaches exemplars to histograms: a short ring of recent
// request ids per bucket, so a fat p99 bucket on /debug/series links
// directly to retrievable traces in /debug/requests instead of being an
// anonymous count. Exemplars are opt-in (EnableExemplars) and only
// recorded for observations that carry a rid (Histogram.ObserveEx) — the
// untraced hot path pays nothing.

// DefaultExemplarK is the per-bucket exemplar retention.
const DefaultExemplarK = 4

// Exemplar links one histogram bucket to a recent traced request. LE is
// the bucket's upper bound in the Prometheus `le` convention ("+Inf" for
// the overflow bucket).
type Exemplar struct {
	LE    string  `json:"le"`
	Value float64 `json:"value"`
	RID   string  `json:"rid"`
	AtNS  int64   `json:"at_ns"`
}

// exemplarCell is one retained (rid, value) sample.
type exemplarCell struct {
	rid  string
	v    float64
	atNS int64
}

// exemplarStore keeps K recent exemplars per bucket under one mutex. The
// critical section is a couple of stores, so contention stays negligible
// next to the request work that produced the sample; only rid-carrying
// observations ever take the lock.
type exemplarStore struct {
	mu    sync.Mutex
	k     int
	rings [][]exemplarCell // per bucket: ring of up to k cells; guarded by mu
	next  []int            // per bucket ring cursor; guarded by mu
	n     []int            // per bucket live count; guarded by mu
}

// EnableExemplars turns on per-bucket exemplar retention (k <= 0 selects
// DefaultExemplarK). Nil-safe and idempotent: a histogram shared through
// one registry keeps the store its first caller installed, even while
// another holder is already observing into it.
func (h *Histogram) EnableExemplars(k int) {
	if h == nil || h.ex.Load() != nil {
		return
	}
	if k <= 0 {
		k = DefaultExemplarK
	}
	buckets := len(h.bounds) + 1
	st := &exemplarStore{
		k:     k,
		rings: make([][]exemplarCell, buckets),
		next:  make([]int, buckets),
		n:     make([]int, buckets),
	}
	for i := range st.rings {
		st.rings[i] = make([]exemplarCell, k)
	}
	h.ex.CompareAndSwap(nil, st)
}

func (st *exemplarStore) add(bucket int, v float64, rid string, atNS int64) {
	st.mu.Lock()
	ring := st.rings[bucket]
	ring[st.next[bucket]] = exemplarCell{rid: rid, v: v, atNS: atNS}
	st.next[bucket] = (st.next[bucket] + 1) % st.k
	if st.n[bucket] < st.k {
		st.n[bucket]++
	}
	st.mu.Unlock()
}

// Exemplars returns the retained exemplars, buckets in ascending bound
// order and newest-first within a bucket. Empty (never nil semantics —
// a nil histogram or disabled store reads as no exemplars).
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	st := h.ex.Load()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []Exemplar
	for b := range st.rings {
		le := "+Inf"
		if b < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[b], 'g', -1, 64)
		}
		for i := 1; i <= st.n[b]; i++ {
			c := st.rings[b][(st.next[b]-i+st.k)%st.k]
			out = append(out, Exemplar{LE: le, Value: c.v, RID: c.rid, AtNS: c.atNS})
		}
	}
	return out
}

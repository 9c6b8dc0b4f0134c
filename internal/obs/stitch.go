package obs

import (
	"sort"
	"strconv"
)

// This file joins request trees recorded on different cluster peers into
// one cross-peer trace. The rid is the join key: a forwarded query runs
// under the same rid on both sides (the requester propagates it on the
// wire), the requester's tree shows an opaque "forward" span, and the
// owner's tree carries Origin = <requester peer>. Stitching grafts the
// owner's spans under the requester's forward span, so one tree shows the
// whole cross-peer request with per-peer phase attribution.
//
// Join rules:
//
//  1. A tree with Origin == "" is a requester-side root candidate; a tree
//     with Origin != "" is an owner-side fragment.
//  2. Roots and fragments pair by exact rid. Server-minted rids ("r1",
//     "r2", ...) are only unique per peer, so when several roots share a
//     rid a fragment joins the root whose peer key equals its Origin; a
//     lone root also takes origin-less matches (scrapers may key byPeer
//     with debug addresses while Origin carries the serve address). A
//     fragment whose rid matches no root is an orphan (its root fell out
//     of the requester's retention) and is dropped; a root with no
//     fragment was never forwarded (or the owner's half fell out) and is
//     also dropped — stitching reports only genuinely joined cross-peer
//     trees.
//  3. The owner's spans become children of the requester's top-level
//     "forward" span (the first one, matching the at-most-one-hop
//     guarantee). Trees are deep-copied first: recorder snapshots share
//     immutable trees, and stitching must not mutate them.
//  4. Remote queue/exec attribution comes from the owner's top-level
//     "queue" and "exec" spans.

// StitchedTrace is one cross-peer request tree after joining.
type StitchedTrace struct {
	// RID is the shared request id both halves carried.
	RID string `json:"rid"`
	// RequesterPeer and OwnerPeer name the two sides of the hop: the peer
	// whose client-facing tree rooted the stitch, and the peer that
	// answered the forwarded query (the owner tree's recording peer).
	RequesterPeer string `json:"requester_peer"`
	OwnerPeer     string `json:"owner_peer"`
	// Root is the requester's tree with the owner's spans grafted under
	// its forward span. A fresh deep copy, safe to mutate.
	Root *RequestTrace `json:"root"`
	// ForwardNS is the requester's forward-span duration; RemoteQueueNS and
	// RemoteExecNS are the owner's queue and exec span durations. The
	// difference ForwardNS - RemoteQueueNS - RemoteExecNS is wire + peer
	// overhead.
	ForwardNS     int64 `json:"forward_ns"`
	RemoteQueueNS int64 `json:"remote_queue_ns"`
	RemoteExecNS  int64 `json:"remote_exec_ns"`
}

// WireNS is the part of the forward span not accounted for by the owner's
// queue or exec phases (clamped at zero against clock skew).
func (s *StitchedTrace) WireNS() int64 {
	w := s.ForwardNS - s.RemoteQueueNS - s.RemoteExecNS
	if w < 0 {
		return 0
	}
	return w
}

// copyTrace deep-copies a request tree (attrs and spans included).
func copyTrace(tr *RequestTrace) *RequestTrace {
	out := *tr
	out.Attrs = append([]Attr(nil), tr.Attrs...)
	out.Spans = copySpans(tr.Spans)
	return &out
}

func copySpans(spans []*Span) []*Span {
	if spans == nil {
		return nil
	}
	out := make([]*Span, len(spans))
	for i, s := range spans {
		c := *s
		c.Attrs = append([]Attr(nil), s.Attrs...)
		c.Children = copySpans(s.Children)
		out[i] = &c
	}
	return out
}

// topSpan finds the first top-level span with the given name (nil if
// absent).
func topSpan(tr *RequestTrace, name string) *Span {
	for _, s := range tr.Spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// StitchTraces joins per-peer trace sets into cross-peer trees. byPeer
// maps each peer's address (as the fleet knows it — the hhcd -self value)
// to the trees scraped from that peer's /debug/requests; every retention
// bucket may be passed, duplicates by (ID, Start) are ignored. The result
// is ordered by descending forward duration, then rid, so the most
// expensive hops list first and equal inputs stitch deterministically.
func StitchTraces(byPeer map[string][]*RequestTrace) []*StitchedTrace {
	type half struct {
		peer string
		tr   *RequestTrace
	}
	roots := map[string][]half{}
	frags := map[string][]half{}
	seen := map[string]map[string]bool{} // peer -> ID/Start dedup
	for peer, trees := range byPeer {
		dd := seen[peer]
		if dd == nil {
			dd = map[string]bool{}
			seen[peer] = dd
		}
		for _, tr := range trees {
			if tr == nil || tr.ID == "" {
				continue
			}
			key := tr.ID + "\x00" + strconv.FormatInt(tr.Start, 10)
			if dd[key] {
				continue
			}
			dd[key] = true
			if tr.Origin != "" {
				frags[tr.ID] = append(frags[tr.ID], half{peer, tr})
				continue
			}
			// A requester root must actually contain a forward span;
			// plain local trees share the rid namespace shape but never
			// pair with a fragment anyway — the span check just avoids
			// mis-rooting when rids collide across peers.
			if topSpan(tr, PhaseForward) != nil {
				roots[tr.ID] = append(roots[tr.ID], half{peer, tr})
			}
		}
	}

	var out []*StitchedTrace
	for rid, rootList := range roots {
		halves := frags[rid]
		if len(halves) == 0 {
			continue
		}
		for _, root := range rootList {
			// Origin names the root's peer; a lone root also claims
			// origin-less matches (see join rule 2). Two same-rid roots
			// with no origin claim stay unjoined — a wrong graft is worse
			// than a dropped one.
			var mine []half
			for _, h := range halves {
				if h.tr.Origin == root.peer {
					mine = append(mine, h)
				}
			}
			if len(mine) == 0 && len(rootList) == 1 {
				mine = halves
			}
			if len(mine) == 0 {
				continue
			}
			sort.Slice(mine, func(i, j int) bool { return mine[i].peer < mine[j].peer })
			tree := copyTrace(root.tr)
			fwd := topSpan(tree, PhaseForward)
			st := &StitchedTrace{
				RID:           rid,
				RequesterPeer: root.peer,
				Root:          tree,
				ForwardNS:     fwd.Dur,
			}
			for _, h := range mine {
				remote := copyTrace(h.tr)
				// The grafted subtree is the owner's whole request, rendered
				// as one child span so the peer boundary stays visible.
				sub := &Span{
					Name:  "remote",
					Start: remote.Start,
					Dur:   remote.Dur,
					Attrs: append([]Attr{{Key: "peer", Value: h.peer}}, remote.Attrs...),
				}
				sub.Children = remote.Spans
				fwd.Children = append(fwd.Children, sub)
				st.OwnerPeer = h.peer
				if q := topSpan(remote, PhaseQueue); q != nil {
					st.RemoteQueueNS += q.Dur
				}
				if x := topSpan(remote, PhaseExec); x != nil {
					st.RemoteExecNS += x.Dur
				}
			}
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ForwardNS != out[j].ForwardNS {
			return out[i].ForwardNS > out[j].ForwardNS
		}
		return out[i].RID < out[j].RID
	})
	return out
}

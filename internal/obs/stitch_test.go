package obs

import (
	"encoding/json"
	"testing"
	"time"
)

// mkForwarded builds a requester-side tree: admission, a forward span of
// fwdNS, encode.
func mkForwarded(rid string, start, fwdNS int64) *RequestTrace {
	return &RequestTrace{
		ID: rid, Op: "paths", Start: start, Dur: fwdNS + 30,
		Spans: []*Span{
			{Name: "admission", Start: start, Dur: 10},
			{Name: "forward", Start: start + 10, Dur: fwdNS},
			{Name: "encode", Start: start + 10 + fwdNS, Dur: 20},
		},
	}
}

// mkOwner builds the owner-side half: same rid, Origin set, queue and
// exec spans.
func mkOwner(rid, origin string, start, queueNS, execNS int64) *RequestTrace {
	return &RequestTrace{
		ID: rid, Op: "paths", Start: start, Dur: queueNS + execNS + 5,
		Origin: origin,
		Spans: []*Span{
			{Name: "admission", Start: start, Dur: 2},
			{Name: "queue", Start: start + 2, Dur: queueNS},
			{Name: "exec", Start: start + 2 + queueNS, Dur: execNS},
		},
	}
}

func TestStitchTracesJoinsByRID(t *testing.T) {
	byPeer := map[string][]*RequestTrace{
		"a:1": {
			mkForwarded("r7", 1000, 500),
			// A plain local tree on the requester: no forward span, never
			// a root.
			{ID: "r8", Op: "paths", Start: 1000, Dur: 40,
				Spans: []*Span{{Name: "exec", Start: 1000, Dur: 40}}},
		},
		"b:2": {
			mkOwner("r7", "a:1", 1100, 120, 300),
			// An orphan fragment: its root fell out of retention.
			mkOwner("r9", "a:1", 1100, 1, 1),
		},
	}
	stitched := StitchTraces(byPeer)
	if len(stitched) != 1 {
		t.Fatalf("stitched %d trees, want 1", len(stitched))
	}
	st := stitched[0]
	if st.RID != "r7" || st.RequesterPeer != "a:1" || st.OwnerPeer != "b:2" {
		t.Errorf("join = rid %q %q->%q, want r7 a:1->b:2",
			st.RID, st.RequesterPeer, st.OwnerPeer)
	}
	if st.ForwardNS != 500 || st.RemoteQueueNS != 120 || st.RemoteExecNS != 300 {
		t.Errorf("phases = fwd %d queue %d exec %d, want 500/120/300",
			st.ForwardNS, st.RemoteQueueNS, st.RemoteExecNS)
	}
	if st.WireNS() != 80 {
		t.Errorf("wire = %d, want 500-120-300 = 80", st.WireNS())
	}
	fwd := topSpan(st.Root, "forward")
	if fwd == nil || len(fwd.Children) != 1 || fwd.Children[0].Name != "remote" {
		t.Fatalf("forward span children = %+v, want one grafted remote subtree", fwd)
	}
	remote := fwd.Children[0]
	if len(remote.Children) != 3 || remote.Children[1].Name != "queue" {
		t.Errorf("remote subtree children = %d, want the owner's 3 phase spans", len(remote.Children))
	}
	// The sum of the stitched remote phases equals the per-peer spans they
	// came from.
	var qd, xd int64
	for _, c := range remote.Children {
		switch c.Name {
		case "queue":
			qd = c.Dur
		case "exec":
			xd = c.Dur
		}
	}
	if qd != st.RemoteQueueNS || xd != st.RemoteExecNS {
		t.Errorf("grafted spans %d/%d disagree with attribution %d/%d",
			qd, xd, st.RemoteQueueNS, st.RemoteExecNS)
	}
}

func TestStitchTracesDoesNotMutateInputs(t *testing.T) {
	root := mkForwarded("r1", 1000, 500)
	owner := mkOwner("r1", "a:1", 1100, 10, 20)
	StitchTraces(map[string][]*RequestTrace{
		"a:1": {root}, "b:2": {owner},
	})
	if fwd := topSpan(root, "forward"); len(fwd.Children) != 0 {
		t.Errorf("stitching grafted %d children into the shared input tree", len(fwd.Children))
	}
}

func TestStitchTracesDedupsAndOrders(t *testing.T) {
	slow, fast := mkForwarded("rslow", 1000, 900), mkForwarded("rfast", 1000, 100)
	byPeer := map[string][]*RequestTrace{
		// The same tree in two retention buckets (slowest + recent).
		"a:1": {slow, slow, fast},
		"b:2": {mkOwner("rslow", "a:1", 1, 1, 2), mkOwner("rfast", "a:1", 1, 1, 2)},
	}
	stitched := StitchTraces(byPeer)
	if len(stitched) != 2 {
		t.Fatalf("stitched %d trees, want 2 (dedup by ID/Start)", len(stitched))
	}
	if stitched[0].RID != "rslow" || stitched[1].RID != "rfast" {
		t.Errorf("order = %q, %q; want slowest forward first", stitched[0].RID, stitched[1].RID)
	}
	if n := len(topSpan(stitched[0].Root, "forward").Children); n != 1 {
		t.Errorf("duplicate root produced %d grafts, want 1", n)
	}
}

func TestRequestTraceOriginJSONRoundTrip(t *testing.T) {
	in := mkOwner("r3", "peer-a:9000", 1000, 5, 7)
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out RequestTrace
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Origin != "peer-a:9000" {
		t.Errorf("Origin after round trip = %q, want peer-a:9000", out.Origin)
	}
	plain, _ := json.Marshal(mkTrace("r4", 10, ""))
	if string(plain) == "" || jsonHasKey(plain, "origin") {
		t.Errorf("direct trace serialized origin field: %s", plain)
	}
}

func jsonHasKey(data []byte, key string) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}

func TestForwardedSlowFilter(t *testing.T) {
	rt := NewTracer(4)
	rt.SetSlowThreshold(time.Nanosecond) // everything is slow
	fwd := mkOwner("rf", "a:1", 1000, 1, 1)
	fwd.Slow = true
	local := mkTrace("rl", 100, "")
	local.Slow = true
	rt.Record(fwd)
	rt.Record(local)
	snap := rt.Snapshot()
	if len(snap.Slow) != 1 || snap.Slow[0].ID != "rl" {
		t.Fatalf("slow bucket = %v, want only the local tree", ids(snap.Slow))
	}
	// Forwarded trees still count everywhere else.
	if len(snap.Recent) != 2 {
		t.Errorf("recent = %d, want 2", len(snap.Recent))
	}

	rt2 := NewTracer(4)
	rt2.RetainForwardedSlow(true)
	fwd2 := mkOwner("rf2", "a:1", 1000, 1, 1)
	fwd2.Slow = true
	rt2.Record(fwd2)
	if snap := rt2.Snapshot(); len(snap.Slow) != 1 {
		t.Errorf("opt-in slow bucket = %d trees, want 1", len(snap.Slow))
	}
}

func TestSetOriginLiveTagging(t *testing.T) {
	rt := NewTracer(4)
	rt.SetSlowThreshold(time.Nanosecond)
	q := rt.StartRequest("paths", "rid-9")
	q.SetOrigin("peer-b:9001")
	q.StartSpan("exec").End()
	q.Finish("")
	snap := rt.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatal("no trace recorded")
	}
	tr := snap.Recent[0]
	if tr.Origin != "peer-b:9001" || tr.ID != "rid-9" {
		t.Errorf("trace = id %q origin %q, want rid-9 / peer-b:9001", tr.ID, tr.Origin)
	}
	found := false
	for _, a := range tr.Attrs {
		if a.Key == "origin" && a.Value == "peer-b:9001" {
			found = true
		}
	}
	if !found {
		t.Error("origin attr missing from the tree")
	}
	if !tr.Slow {
		t.Error("forwarded tree not marked Slow (marking stays, only the bucket filters)")
	}
	if len(snap.Slow) != 0 {
		t.Error("forwarded tree leaked into the slow bucket")
	}
}

// TestStitchTracesRIDCollisionAcrossPeers: server-minted rids repeat on
// every peer ("r1", "r2", ...). Two requesters forwarding under the same
// rid must each join only the fragment whose Origin names them; with two
// candidate roots, an origin matching neither stays unjoined rather than
// grafting onto the wrong tree.
func TestStitchTracesRIDCollisionAcrossPeers(t *testing.T) {
	byPeer := map[string][]*RequestTrace{
		"peer-a": {mkForwarded("r1", 100, 500)},
		"peer-c": {mkForwarded("r1", 200, 900)},
		"peer-b": {
			mkOwner("r1", "peer-a", 150, 40, 200),
			mkOwner("r1", "peer-c", 250, 10, 700),
			mkOwner("r1", "peer-x", 300, 5, 5), // origin matches no root
		},
	}
	got := StitchTraces(byPeer)
	if len(got) != 2 {
		t.Fatalf("stitched %d trees, want 2 (one per requester)", len(got))
	}
	// Descending forward duration: peer-c's 900ns hop first.
	if got[0].RequesterPeer != "peer-c" || got[0].RemoteExecNS != 700 {
		t.Errorf("first stitch = %s exec=%d, want peer-c's 700ns fragment",
			got[0].RequesterPeer, got[0].RemoteExecNS)
	}
	if got[1].RequesterPeer != "peer-a" || got[1].RemoteExecNS != 200 {
		t.Errorf("second stitch = %s exec=%d, want peer-a's 200ns fragment",
			got[1].RequesterPeer, got[1].RemoteExecNS)
	}
	for _, st := range got {
		fwd := topSpan(st.Root, "forward")
		if len(fwd.Children) != 1 {
			t.Errorf("%s root grafted %d fragments, want exactly its own",
				st.RequesterPeer, len(fwd.Children))
		}
	}
}

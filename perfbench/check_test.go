package main

import (
	"testing"

	"repro/internal/hhc"
	"repro/internal/pathsvc"
)

func testReference(t *testing.T) (*hhc.Graph, reference, [][]hhc.Node) {
	t.Helper()
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	p := pathsvc.NodePair{U: hhc.Node{X: 0x00, Y: 0}, V: hhc.Node{X: 0xff, Y: 5}}
	ref, paths, err := buildReference(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return g, ref, paths
}

func clonePaths(paths [][]hhc.Node) [][]hhc.Node {
	out := make([][]hhc.Node, len(paths))
	for i, p := range paths {
		out[i] = append([]hhc.Node(nil), p...)
	}
	return out
}

func answerOf(paths [][]hhc.Node, degraded bool) answer {
	return answer{hash: hashPaths(paths), width: int32(len(paths)), degraded: degraded}
}

// Every way an answer can be wrong lands in fail_share; wrong and short
// answers also make the run incorrect.
func TestJudgeFailures(t *testing.T) {
	g, ref, paths := testReference(t)
	full := g.Degree()

	wrongPath := clonePaths(paths)
	wrongPath[1][1].Y ^= 1
	wrongEnd := clonePaths(paths)
	last := len(wrongEnd[0]) - 1
	wrongEnd[0][last].X ^= 1
	cases := []struct {
		name string
		a    answer
		want verdict
	}{
		{"reference", answerOf(paths, false), okAnswer},
		{"wrong path", answerOf(wrongPath, false), failWrong},
		{"wrong endpoint", answerOf(wrongEnd, false), failWrong},
		{"short width", answerOf(paths[:full-1], false), failShort},
		{"degraded prefix", answerOf(paths[:2], true), failDegraded},
		{"error", answer{failed: true}, failError},
	}
	var tl tally
	for _, c := range cases {
		v := judge(c.a, full, ref.hash)
		if v != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, verdictNames[v], verdictNames[c.want])
		}
		tl[v]++
	}
	if got, want := share(tl.failed(), tl.attempted()), 5.0/6; got != want {
		t.Errorf("fail_share = %v, want %v", got, want)
	}
	if tl.incorrect() != 3 {
		t.Errorf("incorrect = %d, want 3 (two wrong, one short)", tl.incorrect())
	}
}

// A path boundary moved by one node changes the hash.
func TestHashPathBoundaries(t *testing.T) {
	a := []hhc.Node{{X: 1}, {X: 2}, {X: 3}}
	if hashPaths([][]hhc.Node{a[:1], a[1:]}) == hashPaths([][]hhc.Node{a[:2], a[2:]}) {
		t.Fatal("hash ignores path boundaries")
	}
}

// The v1 string form hashes like the node form.
func TestHashWirePaths(t *testing.T) {
	_, ref, paths := testReference(t)
	strs := make([][]string, len(paths))
	for i, p := range paths {
		for _, u := range p {
			strs[i] = append(strs[i], hhc.FormatNodeWire(u))
		}
	}
	h, err := hashWirePaths(strs)
	if err != nil {
		t.Fatal(err)
	}
	if h != ref.hash {
		t.Fatal("v1 and v2 forms of one container hash differently")
	}
	if _, err := hashWirePaths([][]string{{"junk"}}); err == nil {
		t.Error("malformed node accepted")
	}
}

// The cold workload's sample is seeded: the same seed checks the same
// keys, and about one key in checkEvery is checked.
func TestSampledKey(t *testing.T) {
	n := 0
	for k := int64(0); k < 80000; k++ {
		if sampledKey(7, k) != sampledKey(7, k) {
			t.Fatal("sample not deterministic")
		}
		if sampledKey(7, k) {
			n++
		}
	}
	if n < 9000 || n > 11000 {
		t.Fatalf("sampled %d of 80000, want about %d", n, 80000/checkEvery)
	}
}

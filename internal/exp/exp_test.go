package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 99} }

// TestAllExperimentsRun executes every registry entry in quick mode, checks
// each produces at least one non-empty table, and that rendering works.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", e.ID)
			}
			for _, tab := range tables {
				if tab.NumRows() == 0 {
					t.Fatalf("%s: empty table %q", e.ID, tab.Title)
				}
				var buf bytes.Buffer
				if err := tab.Render(&buf); err != nil {
					t.Fatal(err)
				}
				if buf.Len() == 0 {
					t.Fatalf("%s: empty render", e.ID)
				}
			}
		})
	}
}

func TestFind(t *testing.T) {
	e, err := Find("E3")
	if err != nil || e.ID != "E3" {
		t.Fatalf("Find(E3) = %v, %v", e, err)
	}
	if _, err := Find("E99"); err == nil {
		t.Fatal("Find(E99): want error")
	}
}

func TestRunAndRender(t *testing.T) {
	e, err := Find("E9")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunAndRender(e, quickCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E9") || !strings.Contains(out, "cost") {
		t.Fatalf("render output suspicious:\n%s", out)
	}
}

func TestRunAndRenderCSV(t *testing.T) {
	e, err := Find("E9")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunAndRenderCSV(e, quickCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# E9/0:") {
		t.Fatalf("missing CSV block header:\n%.80s", out)
	}
	if !strings.Contains(out, "m,n,") {
		t.Fatalf("missing CSV column header:\n%.200s", out)
	}
}

// TestE1Shape sanity-checks the rows of the properties table: degree m+1,
// connectivity m+1, diameter within the analytic bound.
func TestE1Shape(t *testing.T) {
	tables, err := E1Properties(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows()
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		m, _ := strconv.Atoi(row[0])
		deg, _ := strconv.Atoi(row[3])
		if deg != m+1 {
			t.Fatalf("m=%d: degree column %s", m, row[3])
		}
		if !strings.HasPrefix(row[4], strconv.Itoa(m+1)) {
			t.Fatalf("m=%d: connectivity column %s, want %d", m, row[4], m+1)
		}
	}
}

// TestE6GuaranteeColumn: every row with faults <= m must be marked
// guaranteed with full survival (the harness itself errors otherwise, but
// assert the rendered rate too).
func TestE6GuaranteeColumn(t *testing.T) {
	tables, err := E6Faults(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows() {
		if row[7] == "guaranteed" && row[5] != "1.000" {
			t.Fatalf("guaranteed row has rate %s", row[5])
		}
	}
}

// TestE20GuaranteeColumn: the container policy must report 100 % for every
// f <= m row.
func TestE20GuaranteeColumn(t *testing.T) {
	tables, err := E20Adaptive(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows() {
		m, _ := strconv.Atoi(row[0])
		f, _ := strconv.Atoi(row[1])
		if f <= m && row[3] != "1.000" {
			t.Fatalf("container-ok %s with f=%d <= m=%d", row[3], f, m)
		}
	}
}

// TestE9CostAdvantage: the cost (degree×diameter bound) of HHC must beat
// the hypercube's n² for every m >= 2 row — the design's selling point.
func TestE9CostAdvantage(t *testing.T) {
	tables, err := E9Compare(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows() {
		m, _ := strconv.Atoi(row[0])
		costHHC, _ := strconv.Atoi(row[6])
		costQ, _ := strconv.Atoi(row[7])
		if m >= 3 && costHHC >= costQ {
			t.Fatalf("m=%d: HHC cost %d not below Q cost %d", m, costHHC, costQ)
		}
	}
}

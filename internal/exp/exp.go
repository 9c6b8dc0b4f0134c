// Package exp is the experiment harness: every table and figure of the
// reproduction (E1..E22 in DESIGN.md) has one entry here that regenerates
// its rows. The same entries back cmd/hhcbench, the Benchmark* functions in
// the repository root, and the measurements recorded in EXPERIMENTS.md.
package exp

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
)

// Config tunes sample sizes. Quick mode keeps every experiment under a
// second or two for use inside the test suite; the full mode is what
// EXPERIMENTS.md reports.
type Config struct {
	Quick bool
	Seed  int64
}

// DefaultConfig is the full-fidelity configuration.
func DefaultConfig() Config { return Config{Seed: 20060425} }

// Entry is one reproducible experiment.
type Entry struct {
	ID    string // E1..E22
	Title string // what the paper reports
	Run   func(Config) ([]*stats.Table, error)
}

// All returns the registry in presentation order.
func All() []Entry {
	return []Entry{
		{ID: "E1", Title: "Table 1: topology properties of HHC", Run: E1Properties},
		{ID: "E2", Title: "Theorem check: container construction on sampled/exhaustive pairs", Run: E2Construct},
		{ID: "E3", Title: "Figure 1: container path length vs super-distance", Run: E3Profile},
		{ID: "E4", Title: "Table 2: construction vs max-flow baseline", Run: E4Baseline},
		{ID: "E5", Title: "Figure 2: construction cost scaling (size-independence)", Run: E5Scaling},
		{ID: "E6", Title: "Table 3: fault tolerance of the container", Run: E6Faults},
		{ID: "E7", Title: "Figure 3: wide-diameter estimate vs diameter", Run: E7WideDiameter},
		{ID: "E8", Title: "Table 4: cyclic-order strategy ablation", Run: E8Ablation},
		{ID: "E9", Title: "Table 5: HHC vs hypercube of equal size", Run: E9Compare},
		{ID: "E10", Title: "Figure 4: DES latency/throughput, single vs multi-path", Run: E10Netsim},
		{ID: "E11", Title: "Table 6: measured HHC vs Q_n vs CCC at equal node counts", Run: E11Measured},
		{ID: "E12", Title: "Table 7: broadcast rounds on the distributed spanning tree", Run: E12Broadcast},
		{ID: "E13", Title: "Table 8: ring embeddings via Hamiltonian son-cube paths", Run: E13Rings},
		{ID: "E14", Title: "Table 9: link congestion under permutation traffic", Run: E14Permutation},
		{ID: "E15", Title: "Figure 5: cross-network DES latency at equal node counts", Run: E15CrossNetworkDES},
		{ID: "E16", Title: "Table 10: traffic patterns × routing policies", Run: E16Patterns},
		{ID: "E17", Title: "Table 11: wormhole deadlock analysis (channel dependency graphs)", Run: E17Deadlock},
		{ID: "E20", Title: "Table 14: fault routing with global vs local knowledge", Run: E20Adaptive},
		{ID: "E21", Title: "Table 15: container quality across equal-sized networks", Run: E21CrossContainers},
		{ID: "E22", Title: "Figure 6: saturation-throughput search per routing policy", Run: E22Saturation},
	}
}

// Find returns the entry with the given ID.
func Find(id string) (Entry, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Entry{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, ids)
}

// RunAndRender executes an entry and renders its tables to w as aligned
// plain text.
func RunAndRender(e Entry, cfg Config, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s — %s ==\n\n", e.ID, e.Title); err != nil {
		return err
	}
	tables, err := e.Run(cfg)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// RunAndRenderMarkdown executes an entry and renders its tables as
// GitHub-flavored markdown under an H2 heading.
func RunAndRenderMarkdown(e Entry, cfg Config, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s \u2014 %s\n\n", e.ID, e.Title); err != nil {
		return err
	}
	tables, err := e.Run(cfg)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.RenderMarkdown(w); err != nil {
			return err
		}
	}
	return nil
}

// RunAndRenderCSV executes an entry and renders its tables as CSV blocks,
// each preceded by a "# <id>/<index>: <title>" comment line.
func RunAndRenderCSV(e Entry, cfg Config, w io.Writer) error {
	tables, err := e.Run(cfg)
	if err != nil {
		return err
	}
	for i, t := range tables {
		if _, err := fmt.Fprintf(w, "# %s/%d: %s\n", e.ID, i, t.Title); err != nil {
			return err
		}
		if err := t.RenderCSV(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

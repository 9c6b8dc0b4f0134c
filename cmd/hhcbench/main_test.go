package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/exp"
)

func quick() exp.Config { return exp.Config{Quick: true, Seed: 5} }

func TestRunSingleExperimentText(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, nil, "E9", quick(), "text", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== E9") || !strings.Contains(out, "completed in") {
		t.Fatalf("text output wrong:\n%.200s", out)
	}
}

func TestRunSingleExperimentCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, nil, "E9", quick(), "csv", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# E9/0:") {
		t.Fatalf("csv output wrong:\n%.200s", out)
	}
	if strings.Contains(out, "completed in") {
		t.Fatal("csv output polluted with progress lines")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, nil, "E99", quick(), "text", false); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run(&buf, nil, "E9", quick(), "yaml", false); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRunCacheReport: -cache emits an uncached row and a cached row with
// hit-rate counters and a speedup figure.
func TestRunCacheReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, nil, "all", quick(), "text", true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"container cache report",
		"uncached",
		"  cached ",
		"speedup",
		"hit-rate=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cache report missing %q:\n%s", want, out)
		}
	}
}

// TestRunArgValidation: trailing positional args are rejected with a usage
// error naming the offending argument.
func TestRunArgValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"stray"}, "E9", quick(), "text", false); err == nil ||
		!strings.Contains(err.Error(), "stray") {
		t.Errorf("trailing args not rejected: %v", err)
	}
}

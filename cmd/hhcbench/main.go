// Command hhcbench regenerates the evaluation tables and figures (E1..E22
// in DESIGN.md). Each experiment prints the same rows/series the paper's
// evaluation reports; EXPERIMENTS.md records a full run.
//
// Usage:
//
//	hhcbench                 # run everything, full fidelity
//	hhcbench -exp E3         # one experiment
//	hhcbench -quick          # reduced samples (seconds, for smoke tests)
//	hhcbench -seed 7         # change workload seed
//	hhcbench -cache          # cold/warm container-cache report
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/hhc"
)

func main() {
	expID := flag.String("exp", "all", "experiment to run: E1..E22 or all")
	quick := flag.Bool("quick", false, "reduced sample sizes")
	seed := flag.Int64("seed", exp.DefaultConfig().Seed, "workload seed")
	format := flag.String("format", "text", "output format: text, csv, or md")
	list := flag.Bool("list", false, "list the experiment catalogue and exit")
	cacheReport := flag.Bool("cache", false, "benchmark the memoizing container cache (hit rate, cold vs warm speedup) and exit")
	obsf := cliutil.RegisterObsFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		if err := cliutil.NoTrailingArgs(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "hhcbench:", err)
			os.Exit(2)
		}
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	cfg := exp.Config{Quick: *quick, Seed: *seed}
	err := obsf.Activate()
	if err == nil {
		err = run(os.Stdout, flag.Args(), *expID, cfg, *format, *cacheReport)
	}
	if err == nil && obsf.Registry != nil {
		// With instrumentation on, summarize the per-phase construction
		// latency histograms before the raw dump: the headline numbers a
		// perf PR wants, without parsing exposition format.
		fmt.Println("observability summary (per-phase construction latency):")
		err = obsf.Registry.WriteSummary(os.Stdout)
		fmt.Println()
	}
	if cerr := obsf.Close(os.Stdout); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hhcbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string, expID string, cfg exp.Config, format string, cacheReport bool) error {
	if err := cliutil.NoTrailingArgs(args); err != nil {
		return err
	}
	if cacheReport {
		return runCacheReport(w, cfg.Seed, cfg.Quick)
	}
	if format != "text" && format != "csv" && format != "md" {
		return fmt.Errorf("unknown format %q (want text, csv, or md)", format)
	}
	entries := exp.All()
	if expID != "all" {
		e, err := exp.Find(expID)
		if err != nil {
			return err
		}
		entries = []exp.Entry{e}
	}
	for _, e := range entries {
		start := time.Now()
		if format == "csv" {
			if err := exp.RunAndRenderCSV(e, cfg, w); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			continue
		}
		if format == "md" {
			if err := exp.RunAndRenderMarkdown(e, cfg, w); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			continue
		}
		if err := exp.RunAndRender(e, cfg, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runCacheReport plays a repeated-pair workload against the memoizing
// container cache and reports hit rate and the speedup over uncached
// construction. The workload models a serving scenario: a few distinct
// flows requested over and over, interleaved with symmetric
// (X-translated) variants that share their flow's cache entry.
func runCacheReport(w io.Writer, seed int64, quick bool) error {
	const m = 4
	g, err := hhc.New(m)
	if err != nil {
		return err
	}
	distinct, rounds := 64, 50
	if quick {
		distinct, rounds = 16, 10
	}
	base := gen.Pairs(g, distinct, gen.Uniform, seed)
	opt := core.Options{}

	// The request stream: every round asks for each base pair plus an
	// X-translated twin (a symmetric pair under the automorphism group).
	var stream []gen.Pair
	for r := 0; r < rounds; r++ {
		shift := uint64(r) & (1<<uint(g.T()) - 1)
		for _, p := range base {
			stream = append(stream, p)
			stream = append(stream, gen.Pair{
				U: hhc.Node{X: p.U.X ^ shift, Y: p.U.Y},
				V: hhc.Node{X: p.V.X ^ shift, Y: p.V.Y},
			})
		}
	}

	fmt.Fprintf(w, "container cache report: m=%d (HHC_%d), %d distinct flows, %d requests\n\n",
		m, g.N(), distinct, len(stream))

	start := time.Now()
	for _, p := range stream {
		if _, err := core.DisjointPathsOpt(g, p.U, p.V, opt); err != nil {
			return err
		}
	}
	direct := time.Since(start)
	fmt.Fprintf(w, "  %-14s %10v total  %8.1f µs/req\n", "uncached", direct.Round(time.Microsecond),
		float64(direct.Microseconds())/float64(len(stream)))

	c, err := cache.New(g, cache.Options{})
	if err != nil {
		return err
	}
	start = time.Now()
	for _, p := range stream {
		if _, err := c.Paths(p.U, p.V, opt); err != nil {
			return err
		}
	}
	cached := time.Since(start)
	fmt.Fprintf(w, "  %-14s %10v total  %8.1f µs/req  %5.1fx speedup  %s\n",
		"cached", cached.Round(time.Microsecond),
		float64(cached.Microseconds())/float64(len(stream)),
		float64(direct)/float64(cached), c.Snapshot())
	return nil
}

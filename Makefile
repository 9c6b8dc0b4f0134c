# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check test vet lint race bench profile exps exps-csv fuzz fuzz-smoke exhaustive fmt tools

all: check

# The full local gate: what CI runs, minus the race pass.
check: vet lint test

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repo invariants: formatting, go vet, and the in-tree hhclint analyzers
# (layering, obscost, determinism, nodefmt, atomicalign, hotpath,
# lockguard, goroutinelife, ctxflow, atomicmix). The second hhclint pass
# flags //lint:ignore directives that no longer suppress anything.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/hhclint ./...
	$(GO) run ./cmd/hhclint -stale-ignores ./...

# Race-detector pass; exercises the container cache's concurrent paths.
race:
	$(GO) test -race ./...

# Quick-mode benchmarks, one per evaluation table/figure plus primitives,
# then short self-served load runs against the path-query daemon: the v1
# JSON lockstep baseline and the v2 binary pipelined configuration, as
# comparable before/after artifacts. Every run also appends one
# timestamped line to BENCH_trajectory.jsonl, so performance drift is
# visible across checkouts instead of each run overwriting the last.
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) run ./cmd/hhcload -selfserve -m 3 -duration 2s -conns 8 -pairs 16 \
		-proto v1 -json BENCH_pathsvc.json
	$(GO) run ./cmd/hhcload -selfserve -m 3 -duration 2s -conns 8 -pairs 16 \
		-proto v2 -pipeline 16 -json BENCH_pathsvc_v2.json
	@printf '{"at":"%s","v1":%s,"v2":%s}\n' \
		"$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		"$$(tr -d '\n' < BENCH_pathsvc.json)" \
		"$$(tr -d '\n' < BENCH_pathsvc_v2.json)" >> BENCH_trajectory.jsonl
	@echo "bench: appended entry $$(wc -l < BENCH_trajectory.jsonl | tr -d ' ') to BENCH_trajectory.jsonl"

# Construction benchmarks under the CPU profiler; prints the top-10 by
# cumulative time so hot spots are visible without opening the web UI.
profile:
	$(GO) test -bench='BenchmarkConstruct|BenchmarkBatch' -benchmem \
		-cpuprofile=cpu.prof -o bench.test .
	$(GO) tool pprof -top -nodecount=10 bench.test cpu.prof

# Full-fidelity evaluation (regenerates every table in EXPERIMENTS.md).
exps:
	$(GO) run ./cmd/hhcbench

exps-csv:
	$(GO) run ./cmd/hhcbench -format csv

# Short fuzzing session over every fuzz target.
fuzz:
	$(GO) test -fuzz=FuzzDisjointPaths -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzRouteAgainstBound -fuzztime=15s ./internal/core
	$(GO) test -fuzz=FuzzDimOrderTermination -fuzztime=15s ./internal/hhc
	$(GO) test -fuzz=FuzzParseNode -fuzztime=10s ./internal/hhc
	$(GO) test -fuzz=FuzzEmbedRing -fuzztime=15s ./internal/hhc
	$(GO) test -fuzz='FuzzWireDecode$$' -fuzztime=10s ./internal/pathsvc
	$(GO) test -fuzz='FuzzWireDecodeV2$$' -fuzztime=10s ./internal/pathsvc
	$(GO) test -fuzz='FuzzEncodeV1MatchesJSON$$' -fuzztime=10s ./internal/pathsvc
	$(GO) test -fuzz='FuzzDecodeResponseMatchesJSON$$' -fuzztime=10s ./internal/pathsvc
	$(GO) test -fuzz='FuzzPackReplay$$' -fuzztime=10s ./internal/cache

# CI-sized fuzzing: 20s per target over the committed seed corpora in
# each package's testdata/fuzz/. New inputs found here are NOT committed
# automatically — promote interesting ones into testdata/fuzz by hand.
fuzz-smoke:
	$(GO) test -fuzz='FuzzDisjointPaths$$' -fuzztime=20s ./internal/core
	$(GO) test -fuzz='FuzzRouteAgainstBound$$' -fuzztime=20s ./internal/core
	$(GO) test -fuzz='FuzzDimOrderTermination$$' -fuzztime=20s ./internal/hhc
	$(GO) test -fuzz='FuzzParseNode$$' -fuzztime=20s ./internal/hhc
	$(GO) test -fuzz='FuzzEmbedRing$$' -fuzztime=20s ./internal/hhc
	$(GO) test -fuzz='FuzzWireDecode$$' -fuzztime=20s ./internal/pathsvc
	$(GO) test -fuzz='FuzzWireDecodeV2$$' -fuzztime=20s ./internal/pathsvc
	$(GO) test -fuzz='FuzzEncodeV1MatchesJSON$$' -fuzztime=20s ./internal/pathsvc
	$(GO) test -fuzz='FuzzDecodeResponseMatchesJSON$$' -fuzztime=20s ./internal/pathsvc
	$(GO) test -fuzz='FuzzPackReplay$$' -fuzztime=20s ./internal/cache

# The 4.2M-pair full verification of the container theorem on HHC_11 (~90s).
exhaustive:
	HHC_EXHAUSTIVE=1 $(GO) test -run ExhaustiveM3Full -v ./internal/core

fmt:
	gofmt -w .

tools:
	$(GO) build ./cmd/...

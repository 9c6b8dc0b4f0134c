#!/usr/bin/env bash
# Builds hhcd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, the Go build cache,
# trace files and the Go tool's own state (HOME) stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/trace" "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
# With telemetry on, the go command may start a detached sidecar process
# that outlives it; "go telemetry off" starts none and turns it off for
# every later go command under this HOME.
go telemetry off >&2
go build -o "$out/bin/hhcd" ./cmd/hhcd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -hhcd "$out/bin/hhcd" -dir "$out/trace" "$@"

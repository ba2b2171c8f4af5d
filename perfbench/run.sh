#!/usr/bin/env bash
# Builds lpdag-serve and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload analyze --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binaries, session
# stores and the span dump of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-buildvcs=false

# With telemetry on, every go command may fork a detached upload process
# that outlives the build; the mode file turns it off before the first one.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

[ -d cmd/lpdag-serve ] || { echo "run.sh: no cmd/lpdag-serve here; run from the repository root" >&2; exit 2; }
go build -o "$out/lpdag-serve" ./cmd/lpdag-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve "$out/lpdag-serve" -dir "$out/run" "$@"

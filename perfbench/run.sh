#!/usr/bin/env bash
# Builds trajand and the benchmark program from the checkout this script
# sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload churn-journal|route-clos|analyze-cold \
#        --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build artefact, the Go build
# cache and the daemon's journal live under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/trajand" ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/trajand not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOENV=off \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomod" GOPROXY=off
go build -o "$out/bin/trajand" ./cmd/trajand
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -trajand "$out/bin/trajand" -workdir "$out/work" "$@"

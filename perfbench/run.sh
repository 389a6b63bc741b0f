#!/usr/bin/env bash
# Builds the benchmark and the topomapd daemon from the checkout's sources,
# then runs the benchmark with the given arguments:
#
#	bash perfbench/run.sh --workload map-small --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every build product (binaries, the Go
# build cache, temporary files and traces) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/topomapd" ]]; then
	echo "perfbench: run from the topomap repository root (go.mod and cmd/topomapd not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/topomapd" ./cmd/topomapd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" --daemon "$out/topomapd" --outdir "$out" --commit "$commit" "$@"

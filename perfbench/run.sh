#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig6-testbed --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact (the Go build
# cache included) lands under $CARGO_TARGET_DIR, default .bench_build, so
# the benchmark writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off
export GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload named|inline|cells|grid --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and span traces go to .bench_build/.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/server" ]; then
	echo "perfbench: run from the root of the repository" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
go build -C perfbench -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds objectrunnerd and perfbench from this checkout's source into
# .bench_build/, then runs perfbench with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 16 --trace 0
#
# Every file the toolchain and the run write — build cache, temp files,
# binaries, result records — stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the root of an ObjectRunner checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/objectrunnerd" ./cmd/objectrunnerd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

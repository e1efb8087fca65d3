#!/bin/sh
# Builds the served-path benchmark from source and runs it. Run from the
# repository root:
#
#	sh perfbench/run.sh --workload run-miss --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache) stays under .bench_build in
# the working directory; no network access is needed (stdlib only).
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS=-mod=readonly \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	go -C perfbench build -o "$out/perfbench" .
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -commit "$commit" "$@"

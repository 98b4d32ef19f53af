#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it from the
# repository root, passing every argument through:
#
#	bash perfbench/run.sh --workload recurring-sharded --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and trace exports stay under
# .bench_build/ in the repository root; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

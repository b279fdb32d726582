#!/usr/bin/env bash
# Builds cmd/decided and the benchmark from source into .bench_build, then
# runs one workload:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every file the build and the run write stays
# under .bench_build (Go build cache included).
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/decided || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/decided and perfbench/ needed)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go build -o "$out/decided" ./cmd/decided >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -decided "$out/decided" -workdir "$out" "$@"

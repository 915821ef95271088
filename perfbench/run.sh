#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the Go toolchain writes
# (build cache, module cache, temp files, the binary) and the spans of a
# traced run go under .bench_build/ in the current directory, so the
# run touches nothing outside the checkout. A checkout without the
# repository's sources fails the build and exits non-zero.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOENV=off

(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -spans "$out/spans.jsonl" "$@"

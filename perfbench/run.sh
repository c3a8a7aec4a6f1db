#!/usr/bin/env bash
# Builds the campaign benchmark and the ccdem-svc daemon from the checkout
# in the current directory, then runs the benchmark with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload feeds-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the toolchain's own config files and
# every scratch file stay under $CARGO_TARGET_DIR (default .bench_build)
# inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
go build -o "$out/ccdem-svc" ./cmd/ccdem-svc
exec "$out/perfbench" -out "$out" "$@"

#!/usr/bin/env bash
# Builds the metasearch benchmark from the checkout it is run in and runs
# it. Everything the build writes (compile cache, toolchain config and
# telemetry, the binary) and the traced runs' spans stay under
# .bench_build in that checkout.
#
#   bash perfbench/run.sh --workload local-cold --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"

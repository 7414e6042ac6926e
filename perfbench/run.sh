#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from this checkout's
# sources, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, binaries and the
# workloads' inputs and outputs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/bin" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOMODCACHE="$build/go-mod" GOPATH="$build/gopath"
# The go command keeps its settings and local telemetry under the user
# config directory; point it into the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/edserverd" edtrace/cmd/edserverd)

exec "$build/bin/perfbench" -work "$build/work" -traces "$build/traces" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload flow_me_newblue1 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, temporary build files,
# the go command's own config and telemetry files, and the binary all stay
# under .bench_build/ in that directory, and the toolchain is kept offline:
# the module's only dependency is the repository itself, through a local
# replace directive.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

#!/usr/bin/env bash
# Entry point of the repository benchmark. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload kv_mixed --seed 1 --seconds 10 --trace 0
#
# It builds cmd/filterd and the benchmark driver into .bench_build/,
# keeping the Go build cache there too, and then runs the driver with
# the given flags. Outside a repository checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config"
# With telemetry in its default "local" mode the go command forks a
# detached sidecar that outlives the build; turning it off keeps the
# benchmark from leaving a process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/filterd" ./cmd/filterd
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -filterd "$out/filterd" "$@"

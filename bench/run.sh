#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Run it from the root of a checkout:
# it builds the benchmark (a module of its own, bench/go.mod, which
# replaces `polygraph` with the checkout) and then becomes the built
# program, passing every argument on.
#
# Everything the Go toolchain writes (build cache, module cache, work
# directory, telemetry state) is kept under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it. Telemetry is
# switched off there before the first `go` command: with it on, `go`
# starts a detached child of itself that outlives the run.
set -eu
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f bench/go.mod ]; then
	echo "bench: no program here: run from the root of a checkout that holds go.mod, internal/ and bench/" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export GOPROXY=off
echo off >"$build/config/go/telemetry/mode"
go build -C bench -o "$build/polygraph-bench" .
exec "$build/polygraph-bench" "$@"

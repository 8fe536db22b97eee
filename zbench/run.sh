#!/usr/bin/env bash
# Builds zeiotbench, zeiotd and the benchmark from the checkout's sources
# into .bench_build, then runs the benchmark with the given arguments:
#
#   bash zbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the checkout root. The Go build cache lives in .bench_build
# too, so nothing is read or written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/zbench/go.mod" ]]; then
	echo "zbench: run from the root of a zeiot checkout (go.mod and zbench/go.mod not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/zeiotbench ./cmd/zeiotd
(cd zbench && go build -o "$build/bin/zbench" .)
exec "$build/bin/zbench" "$@"

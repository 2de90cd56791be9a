#!/bin/sh
# The driver's entry point: build the benchmark inside the checkout, then run
# it with the driver's arguments.  The build cache lives under .bench_build so
# nothing is read or written outside the checkout; the first run compiles the
# standard library into it, later runs only relink what changed.
set -eu
mkdir -p .bench_build
GOCACHE="$PWD/.bench_build/gocache"
export GOCACHE
go build -buildvcs=false -o .bench_build/urm-benchmark ./benchmark
exec .bench_build/urm-benchmark "$@"

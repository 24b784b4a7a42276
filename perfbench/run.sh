#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload sirius-accum --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# leave behind stays inside the checkout: the binary and the Go build cache
# under .bench_build/, corpora, job directories and span files under
# .bench_out/. The last line of standard output is the JSON result.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"

# The benchmark module imports the repository's internal packages through a
# replace directive, so it builds only inside a full checkout; anywhere else
# the build fails and no result is printed.
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOPATH="${build}/gopath"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
go build -C "${root}/perfbench" -o "${build}/perfbench" . >&2

# Run as a child rather than exec'd: setup_s counts the CPU time of the
# benchmark's own process from its start.
"${build}/perfbench" "$@"

#!/usr/bin/env bash
# Concurrency gate for the segment executor behind the parallel and
# out-of-core scans (docs/PARALLEL.md) and the parse daemon
# (docs/ROBUSTNESS.md): vet the whole module, then run every test under the
# race detector.
set -euo pipefail
cd "$(dirname "$0")/.."
go vet ./...
go test -race ./...
# The daemon is the most concurrent surface in the module (per-request
# goroutines, shared registry/tenants/metrics, drain vs in-flight): run its
# suite a second time so scheduling-dependent orders get another roll.
go test -race -count=2 ./internal/padsd
# The out-of-core executor races workers against commit fsyncs, cancel
# hooks, and progress callbacks: give its chaos tests a second roll too.
go test -race -count=2 ./internal/segment

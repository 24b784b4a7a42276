#!/usr/bin/env bash
# CI gate: vet, the full test suite under the race detector (the concurrency
# gate of docs/PARALLEL.md — scripts/race.sh remains as the standalone
# entry), and a telemetry smoke test that drives the observability surface
# of docs/OBSERVABILITY.md end to end through the real binaries.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted="$(gofmt -l cmd internal examples perfbench ./*.go)"
if [[ -n "$unformatted" ]]; then
    echo "ci: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go test -race ./...
# perfbench is a module of its own, so ./... above does not reach it: run
# its tests, which feed every benchmark check a broken output and show it
# is rejected.
(cd perfbench && go vet ./... && go test ./...)

# Telemetry smoke test: every -stats / -trace / -json flag must run clean on
# a real corpus and produce the shape its consumers expect.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp" ./cmd/...

"$tmp/padsbench" -n 200 -runs 1 -noperl -json >"$tmp/bench.json" 2>/dev/null
grep -q '"schema": "pads-bench/v1"' "$tmp/bench.json"
grep -q '"counters"' "$tmp/bench.json"
grep -q '"gomaxprocs"' "$tmp/bench.json"
grep -q '"hot_nodes"' "$tmp/bench.json"

"$tmp/padsbench" -n 200 -runs 1 -noperl -keep "$tmp/sirius.data" >/dev/null

"$tmp/padsacc" -desc testdata/sirius.pads -stats \
    -trace "$tmp/trace.jsonl" -trace-last 50 \
    "$tmp/sirius.data" >/dev/null 2>"$tmp/stats.txt"
grep -q 'parse telemetry' "$tmp/stats.txt"
grep -q 'speculation' "$tmp/stats.txt"
grep -q 'intern' "$tmp/stats.txt"
test "$(wc -l <"$tmp/trace.jsonl")" -eq 50
grep -q '"ev":"record_end"' "$tmp/trace.jsonl"

"$tmp/padsacc" -desc testdata/sirius.pads -stats -workers 4 \
    "$tmp/sirius.data" >/dev/null 2>"$tmp/stats-par.txt"
grep -q 'workers' "$tmp/stats-par.txt"

"$tmp/padsquery" -desc testdata/sirius.pads -q 'count(/es/elt)' -stats \
    "$tmp/sirius.data" >/dev/null 2>"$tmp/stats-query.txt"
grep -q 'parse telemetry' "$tmp/stats-query.txt"

"$tmp/padsfmt" -desc testdata/sirius.pads -stats \
    "$tmp/sirius.data" >/dev/null 2>"$tmp/stats-fmt.txt"
grep -q 'parse telemetry' "$tmp/stats-fmt.txt"

# Profiler smoke test (docs/OBSERVABILITY.md): -profile must exit 0 with a
# non-empty attribution table naming description node paths, and the folded
# output must be flamegraph-ready (semicolon-joined stacks).
"$tmp/padsacc" -desc testdata/sirius.pads -profile \
    -profile-folded "$tmp/folded.txt" \
    "$tmp/sirius.data" >/dev/null 2>"$tmp/prof.txt"
grep -q 'parse profile' "$tmp/prof.txt"
# The attribution table and folded stacks must name description node paths
# (dot- and semicolon-joined respectively) without hard-coding any one
# description's field names.
grep -Eq '[a-z_][a-z_0-9]*(\.[a-z_0-9]+)+$' "$tmp/prof.txt"
grep -Eq '^[a-z_][a-z_0-9]*(;[a-z_0-9]+)+ [0-9]+$' "$tmp/folded.txt"

# Disabled profiling must stay off the allocation hot path: the regression
# test pins a parse with an attached-but-idle profiler to 0 extra allocs/op.
go test -run 'TestDisabledProfilingNoAllocs' -count=1 ./internal/interp >/dev/null

# Value-allocation pins (docs/IR.md): the VM's allocations per record, the
# flat live heap of its scans, the accumulator's allocation-free Add and the
# delimited formatter's allocation-free Append/WriteRecord. They run here
# without -race, whose runtime changes allocation behaviour.
go test -run 'TestVMAllocsPerRecord|TestVMLiveHeapFlat' -count=1 ./internal/interp >/dev/null
go test -run 'TestAddAllocs|TestAppendAllocs' -count=1 ./internal/accum ./internal/fmtconv >/dev/null

# Robustness smoke test (docs/ROBUSTNESS.md): the fuzz targets must survive
# a short budget, and the budget/quarantine flags must behave on a corpus
# with a known error population.
go test -fuzz=FuzzParseDescription -fuzztime=5s -run='^$' ./internal/sema >/dev/null
go test -fuzz=FuzzInterpParse -fuzztime=5s -run='^$' ./internal/interp >/dev/null

"$tmp/padsgen" -corpus clf -n 500 -seed 3 >"$tmp/clf.data"
printf '!! not a log line !!\n' >>"$tmp/clf.data"

# Within budget: the scan completes and dead-letters the errored records.
"$tmp/padsacc" -desc testdata/clf.pads -quarantine "$tmp/q.jsonl" -stats \
    "$tmp/clf.data" >/dev/null 2>"$tmp/stats-rob.txt"
test -s "$tmp/q.jsonl"
grep -q '"record"' "$tmp/q.jsonl"
grep -q 'quarantined' "$tmp/stats-rob.txt"

# The quarantine stream is byte-identical at any worker count.
"$tmp/padsacc" -desc testdata/clf.pads -workers 4 -quarantine "$tmp/q4.jsonl" \
    "$tmp/clf.data" >/dev/null
cmp -s "$tmp/q.jsonl" "$tmp/q4.jsonl"

# Over budget: exit status 3, distinct from hard failure.
set +e
"$tmp/padsacc" -desc testdata/clf.pads -fail-fast "$tmp/clf.data" >/dev/null 2>&1
status=$?
set -e
test "$status" -eq 3

# Out-of-core smoke (docs/ROBUSTNESS.md, "Out-of-core jobs"): a corpus
# larger than the memory limit, parsed segment-at-a-time under GOMEMLIMIT,
# SIGKILLed mid-run, then resumed from the durable manifest — the resumed
# report and quarantine must be byte-identical to an uninterrupted
# out-of-core run of the same plan.
"$tmp/padsgen" -corpus sirius -n 380000 -seed 11 >"$tmp/big.data" # ~64 MB

GOMEMLIMIT=64MiB "$tmp/padsacc" -desc testdata/sirius.pads -out-of-core \
    -segment-size 1m -workers 2 -manifest "$tmp/ooc-full.manifest" \
    -quarantine "$tmp/ooc-full.q" "$tmp/big.data" >"$tmp/ooc-full.report"

GOMEMLIMIT=64MiB "$tmp/padsacc" -desc testdata/sirius.pads -out-of-core \
    -segment-size 1m -workers 2 -manifest "$tmp/ooc-kill.manifest" \
    -quarantine "$tmp/ooc-kill.q" "$tmp/big.data" >/dev/null 2>&1 &
ooc_pid=$!
sleep 1
kill -KILL "$ooc_pid" 2>/dev/null || true
set +e
wait "$ooc_pid" 2>/dev/null
set -e

if [[ -f "$tmp/ooc-kill.manifest" ]]; then
    # Resume replays the committed segments' checkpoints and parses the
    # rest. If the kill landed after completion this is a pure re-report;
    # either way the output must match the uninterrupted run.
    GOMEMLIMIT=64MiB "$tmp/padsacc" -desc testdata/sirius.pads \
        -resume "$tmp/ooc-kill.manifest" "$tmp/big.data" >"$tmp/ooc-resumed.report"
else
    # The kill landed before the manifest's first fsync: nothing durable to
    # resume, so the job restarts from scratch — same plan, same output.
    GOMEMLIMIT=64MiB "$tmp/padsacc" -desc testdata/sirius.pads -out-of-core \
        -segment-size 1m -workers 2 -manifest "$tmp/ooc-kill.manifest" \
        -quarantine "$tmp/ooc-kill.q" "$tmp/big.data" >"$tmp/ooc-resumed.report"
fi
cmp -s "$tmp/ooc-full.report" "$tmp/ooc-resumed.report"
cmp -s "$tmp/ooc-full.q" "$tmp/ooc-kill.q"

# The stream outputs take the same path: padsfmt and padsxml out of core,
# over several 64k segments on two workers, write byte for byte what their
# sequential runs write.
"$tmp/padsgen" -corpus sirius -n 20000 -seed 5 >"$tmp/mid.data"
for tool in padsfmt padsxml; do
    "$tmp/$tool" -desc testdata/sirius.pads "$tmp/mid.data" >"$tmp/$tool.seq"
    "$tmp/$tool" -desc testdata/sirius.pads -out-of-core -segment-size 64k \
        -workers 2 -manifest "$tmp/$tool.manifest" -out "$tmp/$tool.ooc" \
        "$tmp/mid.data" 2>/dev/null
    cmp -s "$tmp/$tool.seq" "$tmp/$tool.ooc"
done

# Daemon chaos smoke (docs/ROBUSTNESS.md): start a real padsd process with
# chaos mode on, replay the seeded fault corpus through its HTTP surface,
# SIGTERM it, and assert a clean drain with a non-empty quarantine file —
# plus the hard-drain path (in-flight parse cancelled through the runtime
# deadline hook, exit status 4). Runs under the race detector: the daemon's
# own goroutine-leak checks only mean something when the schedule is hostile.
go test -race -count=1 -run 'TestPadsdDaemon' . >/dev/null

# Perf-regression gate (scripts/benchgate.sh): opt-in, because benchmark
# numbers from a noisy shared machine would fail the build for no reason.
if [[ "${PADS_BENCHGATE:-0}" == "1" ]]; then
    scripts/benchgate.sh
fi

echo "ci: OK"

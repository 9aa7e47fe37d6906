#!/usr/bin/env bash
# bench.sh — run the perf-tracking benchmarks and emit BENCH_<PR>.json.
#
# Usage:
#   scripts/bench.sh              # writes BENCH_13.json in the repo root
#   scripts/bench.sh out.json     # custom output path
#   BENCHTIME=200ms scripts/bench.sh   # quick smoke (CI uses this)
#
# The JSON records ns/op and allocs/op for the tracked hot paths — the
# Bayesian filter tick, the cautious forecast (read against the folded
# lookahead table), the §5.5 confidence sweep, the 16-flow batch
# forecast, the cold build of the folded table, one posterior evolution
# step (Model.Evolve) and its interior gather kernel alone, once per
# kernel this CPU runs (BenchmarkEvolveKernel/go and /asm, so the
# assembly kernel's margin over the Go gather shows on every run), the
# event loop
# (fresh-timer and reused-timer patterns) — plus the macro-benchmarks:
# the reduced scheme×link matrix on materialized traces, the same grid
# driven by streaming delivery processes, the grid decomposed over two
# in-process shards, and the shared-cell world (one tower's delivery
# process apportioned over 16/256/1024 backlogged flows by the
# proportional-fair scheduler). The "baseline" block holds the numbers
# of the tree before the AVX2 evolution kernel, measured on the same
# machine, so the perf trajectory stays auditable across changes.
#
# Every benchmark runs with -cpu 1, whatever GOMAXPROCS the environment
# sets. The engine sizes its worker pool from GOMAXPROCS and every worker
# builds its own world, so the macro allocs/op grow with the core count;
# pinning one core makes each guarded figure a property of the tree, not
# of the machine, and the same tree gets the same verdict on any runner.
#
# Five allocs/op figures are guarded: the matrix, streaming and sharded
# macros at their recorded values (world reuse, the pull path and the
# shard codec must stay allocation-flat), the cautious forecast at zero,
# and the 1024-flow cell world at zero (the flat per-flow tables, reused
# rings and scheduler heap must never touch the heap in steady state). A
# regression of more than 20% over a recorded value (any alloc at all,
# for a recorded zero) fails this script — CI's bench-smoke step turns
# red instead of silently eroding the wins. The folded-table build is
# recorded but not gated: it runs once per process per parameter set.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_13.json}
BENCHTIME=${BENCHTIME:-1s}
MATRIX_BENCHTIME=${MATRIX_BENCHTIME:-1x}
# allocs/op recorded at -cpu 1 (deterministic at -benchtime 1x; the
# macros must run in one binary, in this order — the later ones reuse the
# process-wide forecast-table cache). The matrix value dropped
# 21220 → 3528 once the §3.1 generator's per-step offset buffer was
# reused across steps (shared with the streaming process) instead of
# freshly allocated per 10 ms step. Guards allow +20%.
MATRIX_ALLOCS_RECORDED=${MATRIX_ALLOCS_RECORDED:-3528}
STREAMING_ALLOCS_RECORDED=${STREAMING_ALLOCS_RECORDED:-1584}
# PR 7: the two-shard decomposition of the same grid. Fewer allocs than
# the single-engine run (each shard engine sizes its buffers to its own
# half-grid) — the guard still allows +20% over the recorded value.
SHARDED_ALLOCS_RECORDED=${SHARDED_ALLOCS_RECORDED:-2966}
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

echo "bench: micro (benchtime $BENCHTIME)..." >&2
go test -run '^$' -cpu 1 -bench 'BenchmarkCoreTick$|BenchmarkCoreForecast$|BenchmarkForecastSweep$|BenchmarkForecastBatch$' \
    -benchmem -benchtime "$BENCHTIME" . | tee -a "$TMP" >&2
go test -run '^$' -cpu 1 -bench 'BenchmarkBuildForecastFold$|BenchmarkModelEvolve$|BenchmarkEvolveKernel$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/core/ | tee -a "$TMP" >&2
go test -run '^$' -cpu 1 -bench 'BenchmarkLoopThroughput$|BenchmarkLoopTimerReuse$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/sim/ | tee -a "$TMP" >&2

echo "bench: macro matrix + streaming + sharded matrix + cell world (benchtime $MATRIX_BENCHTIME)..." >&2
go test -run '^$' -cpu 1 -bench 'BenchmarkMatrixParallel$|BenchmarkStreamingMatrix$|BenchmarkShardedMatrix$|BenchmarkCellWorld$' \
    -benchmem -benchtime "$MATRIX_BENCHTIME" . | tee -a "$TMP" >&2

awk -v out="$OUT" -v mguard="$MATRIX_ALLOCS_RECORDED" -v sguard="$STREAMING_ALLOCS_RECORDED" -v shguard="$SHARDED_ALLOCS_RECORDED" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns[name] = $i
        if ($(i+1) == "allocs/op") allocs[name] = $i
    }
    seen[name] = 1
}
END {
    printf "{\n"
    printf "  \"pr\": 13,\n"
    printf "  \"description\": \"AVX2 kernel for the interior of the posterior evolution step under Model.Evolve: 16 destination bins per call in four YMM accumulators, separate VMULPD and VADDPD (no FMA), every lane summed in ascending source-bin order, so results stay bit-identical to the 8-lane Go gather, which remains the fallback and the test oracle; chosen once at package init from CPUID and XGETBV\",\n"
    printf "  \"baseline\": {\n"
    printf "    \"comment\": \"the parent tree (folded lookahead table, 8-lane Go gather only), scripts/bench.sh plus BenchmarkModelEvolve at -cpu 1 on the same 2-vCPU VM, measured in a slow spell (the host drifts ~2x); BenchmarkEvolveKernel did not exist, and its /go case runs the interior loop of the parent unchanged\",\n"
    printf "    \"BenchmarkModelEvolve\": {\"ns_per_op\": 15081, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkBuildForecastFold\": {\"ns_per_op\": 53155816, \"allocs_per_op\": 3},\n"
    printf "    \"BenchmarkCoreTick\": {\"ns_per_op\": 24988, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkCoreForecast\": {\"ns_per_op\": 5757, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkForecastSweep\": {\"ns_per_op\": 54893, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkForecastBatch\": {\"ns_per_op\": 132035, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkLoopThroughput\": {\"ns_per_op\": 23.94, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkLoopTimerReuse\": {\"ns_per_op\": 28.15, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkMatrixParallel\": {\"ns_per_op\": 529451522, \"allocs_per_op\": 3528},\n"
    printf "    \"BenchmarkStreamingMatrix\": {\"ns_per_op\": 251020526, \"allocs_per_op\": 1583},\n"
    printf "    \"BenchmarkShardedMatrix\": {\"ns_per_op\": 462224024, \"allocs_per_op\": 2964},\n"
    printf "    \"BenchmarkCellWorld/1024\": {\"ns_per_op\": 316061, \"allocs_per_op\": 0}\n"
    printf "  },\n"
    printf "  \"guard\": {\n"
    printf "    \"comment\": \"bench-smoke fails if a guarded allocs/op regresses >20%% over its recorded value; the forecast hot path and the 1024-flow cell steady state are pinned at zero\",\n"
    printf "    \"BenchmarkCoreForecast_allocs_per_op_recorded\": 0,\n"
    printf "    \"BenchmarkCoreForecast_allocs_per_op_max\": 0,\n"
    printf "    \"BenchmarkCellWorld/1024_allocs_per_op_recorded\": 0,\n"
    printf "    \"BenchmarkCellWorld/1024_allocs_per_op_max\": 0,\n"
    printf "    \"BenchmarkMatrixParallel_allocs_per_op_recorded\": %d,\n", mguard
    printf "    \"BenchmarkMatrixParallel_allocs_per_op_max\": %d,\n", int(mguard * 1.2)
    printf "    \"BenchmarkStreamingMatrix_allocs_per_op_recorded\": %d,\n", sguard
    printf "    \"BenchmarkStreamingMatrix_allocs_per_op_max\": %d,\n", int(sguard * 1.2)
    printf "    \"BenchmarkShardedMatrix_allocs_per_op_recorded\": %d,\n", shguard
    printf "    \"BenchmarkShardedMatrix_allocs_per_op_max\": %d\n", int(shguard * 1.2)
    printf "  },\n"
    printf "  \"results\": {\n"
    n = 0
    for (name in seen) order[++n] = name
    # stable order for diffs (insertion sort; asort is gawk-only)
    for (i = 2; i <= n; i++) {
        v = order[i]
        for (j = i - 1; j >= 1 && order[j] > v; j--) order[j+1] = order[j]
        order[j+1] = v
    }
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s}%s\n",
            name, ns[name], (name in allocs) ? allocs[name] : "null",
            (i < n) ? "," : ""
    }
    printf "  }\n"
    printf "}\n"
}' "$TMP" > "$OUT"

echo "bench: wrote $OUT" >&2
cat "$OUT"

# Alloc-regression gates on the experiment layer: the macro benchmarks
# are deterministic in allocs/op, so a >20% excursion is a real
# regression, not noise.
gate() {
    local bench=$1 recorded=$2
    local measured
    measured=$(awk -v b="^$bench(-[0-9]+)?$" '$1 ~ b {
        for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") print $i
    }' "$TMP" | head -n1)
    if [ -z "${measured:-}" ]; then
        # A gate that cannot parse its input must fail, not silently pass.
        echo "bench: FAIL — could not extract $bench allocs/op from benchmark output" >&2
        exit 1
    fi
    local limit=$(( recorded + recorded / 5 ))
    if [ "$measured" -gt "$limit" ]; then
        echo "bench: FAIL — $bench allocs/op $measured exceeds guard $limit (recorded $recorded +20%)" >&2
        exit 1
    fi
    echo "bench: $bench allocs/op $measured within guard $limit" >&2
}
gate BenchmarkCoreForecast 0
gate 'BenchmarkCellWorld/1024' 0
gate BenchmarkMatrixParallel "$MATRIX_ALLOCS_RECORDED"
gate BenchmarkStreamingMatrix "$STREAMING_ALLOCS_RECORDED"
gate BenchmarkShardedMatrix "$SHARDED_ALLOCS_RECORDED"

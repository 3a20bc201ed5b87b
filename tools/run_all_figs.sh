#!/usr/bin/env bash
#
# Regenerates every paper figure/table at reduced instruction counts, one
# `figures NAME` process per figure (bench/catalog.h), writing
# OUT_DIR/<figure>.txt, .jsonl and .csv per figure.
#
# Usage: tools/run_all_figs.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build tree (default: build)
#   OUT_DIR    artifact directory (default: BUILD_DIR/fig_artifacts)
#
# Tunables (environment): UDP_BENCH_WARMUP / UDP_BENCH_INSTR (instruction
# counts per data point, default here: 20k/40k), UDP_JOBS (sweep worker
# count, default: all cores), UDP_BENCH_TIMEOUT (wall-clock seconds per
# figure before it is killed and counted as hung, default: 900),
# UDP_BENCH_ISOLATE=1 (run with --isolate: each sweep point in its own
# resource-limited child process).
#
# Each figure runs, and is timed, on its own: perfbench/run.py takes every
# figure's wall time and simulation rate from the "=== NAME ===" and
# outcome lines below. One `figures --out-dir DIR` run writes the same
# files and simulates each point that several figures share only once
# (295 distinct of 1,115 requested points); this script switches to it
# when the benchmark's per-figure metrics are redefined (ROADMAP.md).
#
# Outcome classes per figure: ok, FAILED (nonzero exit), CRASHED (died on
# a signal — the signal name is reported), HUNG (wall-clock timeout) and
# INTERRUPTED (exit 130: graceful shutdown). Each figure's sweep
# checkpoints every finished point into OUT_DIR/figures.manifest.jsonl
# (started afresh per figure), so a HUNG or INTERRUPTED figure is retried
# once with --resume and only re-runs what is missing. Each figure's
# sweep log is OUT_DIR/<figure>.log. See docs/EXPERIMENT_GUIDE.md and
# docs/ROBUSTNESS.md.

set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-$BUILD_DIR/fig_artifacts}
BENCH_TIMEOUT=${UDP_BENCH_TIMEOUT:-900}

# Wall-clock guard around each run: a modeling-bug hang must not wedge
# the whole script. `timeout` exits 124 on expiry.
run_with_timeout() {
    if command -v timeout > /dev/null 2>&1; then
        timeout --signal=TERM --kill-after=30 "$BENCH_TIMEOUT" "$@"
    else
        "$@"
    fi
}

if [[ ! -d "$BUILD_DIR/bench" ]]; then
    echo "error: $BUILD_DIR/bench not found — build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
fi

export UDP_BENCH_WARMUP=${UDP_BENCH_WARMUP:-20000}
export UDP_BENCH_INSTR=${UDP_BENCH_INSTR:-40000}
mkdir -p "$OUT_DIR"

# Classifies an exit status: ok | failed | crashed | hung | interrupted.
# `timeout` exits 124 on expiry (137 when it had to SIGKILL); any other
# status >= 128 means the run itself died on signal (status - 128).
classify_rc() {
    local rc=$1
    if [[ $rc -eq 0 ]]; then
        echo ok
    elif [[ $rc -eq 124 || $rc -eq 137 ]]; then
        echo hung
    elif [[ $rc -eq 130 ]]; then
        echo interrupted
    elif [[ $rc -ge 128 ]]; then
        echo crashed
    else
        echo failed
    fi
}

signal_of_rc() {
    kill -l "$(($1 - 128))" 2> /dev/null || echo "$(($1 - 128))"
}

failures=0
hung=0
crashed=0

# Prints the outcome line of run NAME (exit status RC, output in LOG)
# and counts it.
report() {
    local name=$1 rc=$2 log=$3
    case $(classify_rc "$rc") in
    ok)
        echo "ok       $name"
        ;;
    hung)
        echo "HUNG     $name (killed after ${BENCH_TIMEOUT}s, see $log)" >&2
        hung=$((hung + 1))
        failures=$((failures + 1))
        ;;
    crashed)
        echo "CRASHED  $name ($(signal_of_rc "$rc"), see $log)" >&2
        crashed=$((crashed + 1))
        failures=$((failures + 1))
        ;;
    interrupted)
        echo "INTERRUPTED $name (exit 130, see $log)" >&2
        failures=$((failures + 1))
        ;;
    *)
        echo "FAILED   $name (exit $rc, see $log)" >&2
        failures=$((failures + 1))
        ;;
    esac
}

# The catalog's figures in catalog order (tests/test_figures.cc checks
# this list against bench/catalog.cc).
FIGURES="fig01_perfect_icache fig03_ftq_sweep fig04_timeliness
fig05_onpath_ratio fig06_usefulness fig08_occupancy fig11_uftq
fig12_uftq_mpki fig13_udp fig14_udp_mpki fig15_lost_instructions
fig16_btb_sensitivity fig17_ftq_sensitivity table3_optimal_ftq
ablation_udp"

bin="$BUILD_DIR/bench/figures"
if [[ -x "$bin" ]]; then
    args=(--out-dir "$OUT_DIR")
    if [[ "${UDP_BENCH_ISOLATE:-0}" == "1" ]]; then
        args+=(--isolate)
    fi
    for name in $FIGURES; do
        log="$OUT_DIR/$name.log"
        echo "=== $name ==="
        rc=0
        run_with_timeout "$bin" "$name" "${args[@]}" > "$log" 2>&1 || rc=$?
        outcome=$(classify_rc $rc)
        # A hung or interrupted figure has a checkpoint manifest: retry
        # once with --resume so only the missing points re-run.
        if [[ $outcome == hung || $outcome == interrupted ]]; then
            echo "RETRY    $name ($outcome, resuming from manifest)" >&2
            rc=0
            run_with_timeout "$bin" "$name" "${args[@]}" --resume \
                >> "$log" 2>&1 || rc=$?
        fi
        report "$name" $rc "$log"
    done
else
    echo "MISSING  figures" >&2
    failures=$((failures + 1))
fi

# The sweep-enabled example doubles as an API smoke check.
if [[ -x "$BUILD_DIR/examples/example_compare_prefetchers" ]]; then
    echo "=== example_compare_prefetchers ==="
    rc=0
    run_with_timeout "$BUILD_DIR/examples/example_compare_prefetchers" clang \
        "$UDP_BENCH_INSTR" \
        --json "$OUT_DIR/compare_prefetchers.jsonl" \
        --csv "$OUT_DIR/compare_prefetchers.csv" \
        > "$OUT_DIR/compare_prefetchers.txt" \
        2> "$OUT_DIR/compare_prefetchers.log" || rc=$?
    report example_compare_prefetchers $rc "$OUT_DIR/compare_prefetchers.log"
fi

echo
if [[ $failures -ne 0 ]]; then
    echo "$failures run(s) failed ($hung hung, $crashed crashed); artifacts in $OUT_DIR" >&2
    exit 1
fi
echo "all figures passed; artifacts in $OUT_DIR"

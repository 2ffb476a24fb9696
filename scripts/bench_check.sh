#!/usr/bin/env bash
# Perf regression gate for the replay engine and the study runtime.
#
# Builds Release, runs `bench_micro --json` (the M1-M10 figure
# table of bench/bench_micro.cc) and fails if any figure's throughput
# key (GATES below) regressed more than the threshold against the
# checked-in baseline (bench/BENCH_baseline.json).
#
# A baseline that lacks any gated key is stale: the gate fails fast
# with a readable diff of the expected vs present keys instead of
# silently skipping a metric — refresh with --update.
#
# The measurement runs OVLSIM_BENCH_RUNS times (default 3) and each
# gated figure is the per-key best across runs, on the check side
# and the --update side alike. Throughput noise on a shared host is
# one-sided (interference only slows a run down), so the best-of-N
# figure tracks the machine's real capability with far less
# variance than any single run — single samples on this container
# swing +/-15%, which no 10% gate survives.
#
# Usage:
#   scripts/bench_check.sh           # check against the baseline
#   scripts/bench_check.sh --update  # refresh the baseline instead
#
# Environment:
#   OVLSIM_BENCH_THRESHOLD  allowed fractional regression (default 0.10)
#   OVLSIM_BENCH_BUILD_DIR  build directory (default build-bench)
#   OVLSIM_BENCH_THREADS    M4 worker count (default 0 = all cores)
#   OVLSIM_BENCH_RUNS       measurement repetitions (default 3)
#
# The baseline is machine-dependent; refresh it with --update when the
# benchmark host changes, and say so in the commit message.
set -euo pipefail

cd "$(dirname "$0")/.."

THRESHOLD="${OVLSIM_BENCH_THRESHOLD:-0.10}"
BUILD_DIR="${OVLSIM_BENCH_BUILD_DIR:-build-bench}"
THREADS="${OVLSIM_BENCH_THREADS:-0}"
RUNS="${OVLSIM_BENCH_RUNS:-3}"
BASELINE="bench/BENCH_baseline.json"
# The gated keys, each with its table label ("key|label"):
# require_keys, the --update report and the delta table all read
# this one list.
GATES=("events_per_sec|M1 events/sec"
       "compile_records_per_sec|M2 compile records/sec"
       "transform_records_per_sec|M3 transform records/sec"
       "sweep_points_per_sec|M4 sweep points/sec"
       "topo_events_per_sec|M5 topo events/sec"
       "coll_events_per_sec|M6 coll events/sec"
       "scen_events_per_sec|M7 scen events/sec"
       "res_events_per_sec|M8 res events/sec"
       "gen_events_per_sec|M9 gen events/sec"
       "variant_events_per_sec|M10 variant events/sec")
GATED_KEYS=("${GATES[@]%%|*}")
UPDATE=0
if [[ "${1:-}" == "--update" ]]; then
    UPDATE=1
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
      -DOVLSIM_BUILD_TESTS=OFF -DOVLSIM_BUILD_EXAMPLES=OFF \
      >/dev/null
cmake --build "$BUILD_DIR" --target bench_micro -j "$(nproc)" \
      >/dev/null

RESULT_JSONS=()
for ((run = 0; run < RUNS; ++run)); do
    RESULT_JSONS+=("$(mktemp)")
done
trap 'rm -f "${RESULT_JSONS[@]}"' EXIT
for ((run = 0; run < RUNS; ++run)); do
    echo "bench_check: measurement run $((run + 1))/$RUNS"
    "$BUILD_DIR/bench_micro" --json="${RESULT_JSONS[$run]}" \
                             --threads="$THREADS"
done

# Last occurrence of a numeric key in a trajectory file (the most
# recent entry carrying that key).
extract_key() { # file key
    grep -o "\"$2\": *[0-9.eE+]*" "$1" |
        tail -n 1 | grep -o '[0-9.eE+]*$'
}

# Best (max) value of a gated key across all measurement runs.
best_key() { # key
    local key="$1" file best=""
    for file in "${RESULT_JSONS[@]}"; do
        local v
        v="$(extract_key "$file" "$key")"
        if [[ -z "$best" ]]; then
            best="$v"
        else
            best="$(awk -v a="$best" -v b="$v" \
                        'BEGIN { print (b > a) ? b : a }')"
        fi
    done
    echo "$best"
}

# Fail fast with a readable key diff when `file` is missing any
# gated metric, so a stale baseline (or broken bench output) never
# silently skips a gate.
require_keys() { # file what
    local missing=()
    local key
    for key in "${GATED_KEYS[@]}"; do
        if [[ -z "$(extract_key "$1" "$key")" ]]; then
            missing+=("$key")
        fi
    done
    if [[ "${#missing[@]}" -gt 0 ]]; then
        {
            echo "bench_check: FAIL - $2 is missing metric keys"
            echo "  expected: ${GATED_KEYS[*]}"
            echo "  missing:  ${missing[*]}"
            echo "  (refresh with scripts/bench_check.sh --update)"
        } >&2
        exit 1
    fi
}

for file in "${RESULT_JSONS[@]}"; do
    require_keys "$file" "bench output"
done

if [[ "$UPDATE" == 1 || ! -f "$BASELINE" ]]; then
    # The baseline file is the last run's output with every gated
    # key rewritten to its best-of-N figure, so check and update
    # compare like with like.
    cp "${RESULT_JSONS[-1]}" "$BASELINE"
    for key in "${GATED_KEYS[@]}"; do
        best="$(best_key "$key")"
        sed -E -i "s/(\"$key\": *)[0-9.eE+]+/\1$best/" "$BASELINE"
    done
    summary=""
    for gate in "${GATES[@]}"; do
        label="${gate#*|}"
        summary+="${summary:+, }$(extract_key "$BASELINE" "${gate%%|*}")"
        summary+=" ${label#* }"
    done
    echo "bench_check: baseline updated, best of $RUNS runs ($summary)"
    exit 0
fi

require_keys "$BASELINE" "baseline $BASELINE"

# Per-key delta table, printed on PASS and FAIL alike so every run
# leaves a comparable record in the log. A key fails the gate when
# the current figure dropped more than THRESHOLD below the baseline.
FAILED=0
printf 'bench_check: %-26s %14s %14s %8s  %s\n' \
       metric current baseline delta verdict
for gate in "${GATES[@]}"; do
    key="${gate%%|*}"
    cur="$(best_key "$key")"
    base="$(extract_key "$BASELINE" "$key")"
    row="$(awk -v label="${gate#*|}" -v cur="$cur" \
               -v base="$base" -v thr="$THRESHOLD" \
    'BEGIN {
        delta = (cur / base - 1.0) * 100;
        verdict = (cur < base * (1.0 - thr)) ? "FAIL" : "ok";
        printf "bench_check: %-26s %14.0f %14.0f %+7.1f%%  %s",
               label, cur, base, delta, verdict;
    }')"
    echo "$row"
    if [[ "$row" == *FAIL ]]; then
        FAILED=1
    fi
done

if [[ "$FAILED" == 1 ]]; then
    awk -v thr="$THRESHOLD" 'BEGIN {
        printf "bench_check: FAIL - a metric regressed more than %d%% vs bench/BENCH_baseline.json\n",
               thr * 100 }' >&2
    exit 1
fi
awk -v n="${#GATED_KEYS[@]}" -v thr="$THRESHOLD" -v runs="$RUNS" \
'BEGIN {
    printf "bench_check: PASS - all %d metrics (best of %d runs) within %d%% of the baseline\n",
           n, runs, thr * 100 }'

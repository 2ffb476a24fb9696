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
# Best-of-N against a baseline cannot tell a code change from a change
# of host state, so --ab REF compares against a git revision on the
# same host instead. It builds REF in a temporary `git worktree` and
# runs the two bench_micro binaries interleaved OVLSIM_BENCH_RUNS
# times, alternating which one runs first. For each gated key it
# prints the median change/REF ratio over the pairs, how many pairs
# the change won, and the spread of REF's own runs (interquartile
# range over median): a ratio inside that spread is host noise. It
# reports and gates nothing; the absolute gate above is unchanged.
#
# Usage:
#   scripts/bench_check.sh           # check against the baseline
#   scripts/bench_check.sh --update  # refresh the baseline instead
#   scripts/bench_check.sh --ab REF  # interleaved A/B against REF
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
AB_REF=""
case "${1:-}" in
  --update) UPDATE=1 ;;
  --ab)
    AB_REF="${2:?usage: scripts/bench_check.sh --ab REF}"
    git rev-parse --verify --quiet "$AB_REF^{commit}" >/dev/null || {
        echo "bench_check: --ab: unknown revision $AB_REF" >&2
        exit 2
    } ;;
esac

build_bench() { # source-dir build-dir
    cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release \
          -DOVLSIM_BUILD_TESTS=OFF -DOVLSIM_BUILD_EXAMPLES=OFF \
          >/dev/null
    cmake --build "$2" --target bench_micro -j "$(nproc)" >/dev/null
}

build_bench . "$BUILD_DIR"

RESULT_JSONS=()
REF_JSONS=()
for ((run = 0; run < RUNS; ++run)); do
    RESULT_JSONS+=("$(mktemp)")
    REF_JSONS+=("$(mktemp)")
done
REF_DIR=""
cleanup() {
    rm -f "${RESULT_JSONS[@]}" "${REF_JSONS[@]}"
    if [[ -n "$REF_DIR" ]]; then
        git worktree remove --force "$REF_DIR/src" 2>/dev/null || true
        rm -rf "$REF_DIR"
        git worktree prune
    fi
}
trap cleanup EXIT

measure() { # build-dir json
    "$1/bench_micro" --json="$2" --threads="$THREADS"
}

if [[ -n "$AB_REF" ]]; then
    REF_DIR="$(mktemp -d)"
    git worktree add --detach --quiet "$REF_DIR/src" "$AB_REF"
    build_bench "$REF_DIR/src" "$REF_DIR/build"
fi
for ((run = 0; run < RUNS; ++run)); do
    echo "bench_check: measurement run $((run + 1))/$RUNS"
    if [[ -z "$AB_REF" ]]; then
        measure "$BUILD_DIR" "${RESULT_JSONS[$run]}"
    elif ((run % 2 == 0)); then
        measure "$REF_DIR/build" "${REF_JSONS[$run]}"
        measure "$BUILD_DIR" "${RESULT_JSONS[$run]}"
    else
        measure "$BUILD_DIR" "${RESULT_JSONS[$run]}"
        measure "$REF_DIR/build" "${REF_JSONS[$run]}"
    fi
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

if [[ -n "$AB_REF" ]]; then
    for file in "${REF_JSONS[@]}"; do
        require_keys "$file" "bench output of $AB_REF"
    done
    # Per gated key: the median of the per-pair change/REF ratios,
    # the pairs the change won (gated keys are all higher-is-better)
    # and REF's interquartile range over its median.
    printf 'bench_check: %-26s %12s %8s %14s\n' \
           metric "ratio(med)" wins "$AB_REF IQR/med"
    for gate in "${GATES[@]}"; do
        key="${gate%%|*}"
        cur=""
        ref=""
        for ((run = 0; run < RUNS; ++run)); do
            cur+=" $(extract_key "${RESULT_JSONS[$run]}" "$key")"
            ref+=" $(extract_key "${REF_JSONS[$run]}" "$key")"
        done
        awk -v label="${gate#*|}" -v cur="$cur" -v ref="$ref" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; ++i)
                for (j = i; j > 1 && a[j - 1] > a[j]; --j) {
                    t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
                }
        }
        # Quantile q of sorted a[1..n], linear interpolation.
        function quantile(a, n, q,    h, lo) {
            h = (n - 1) * q + 1
            lo = int(h)
            if (lo >= n)
                return a[n]
            return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        BEGIN {
            n = split(cur, c, " ")
            split(ref, r, " ")
            wins = 0
            for (i = 1; i <= n; ++i) {
                ratio[i] = c[i] / r[i]
                if (c[i] > r[i])
                    ++wins
            }
            sort(ratio, n)
            sort(r, n)
            med = quantile(r, n, 0.5)
            iqr = quantile(r, n, 0.75) - quantile(r, n, 0.25)
            printf "bench_check: %-26s %12.3f %5d/%-2d %13.1f%%\n",
                   label, quantile(ratio, n, 0.5), wins, n,
                   iqr / med * 100
        }'
    done
    echo "bench_check: A/B of $RUNS interleaved pairs against $AB_REF" \
         "(no gate applied)"
    exit 0
fi

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

#!/usr/bin/env bash
# One-command pre-merge check: tier-1, a perfbench smoke run, ASAN,
# UBSAN and the TSAN-labeled parallel subset, each in its own build
# tree so the sanitizer toggles never contaminate the normal
# configuration.
#
#   1. tier-1:  Release build with -Werror (the whole tree builds
#               warning-free under -Wall -Wextra), full ctest suite
#   2. perfbench: one 1-second seed-1 run of each benchmark workload
#               (r1-study, gen-ladder, resilience); run.py checks
#               each output digest against
#               perfbench/expected_digests.json, so a change that
#               breaks the benchmark build or moves a benchmark
#               output fails here
#   3. ASAN:    OVLSIM_ASAN build, full ctest suite
#   4. UBSAN:   OVLSIM_UBSAN build, full ctest suite (signed
#               overflow and friends in the event/cost arithmetic)
#   5. TSAN:    OVLSIM_TSAN build, one `ctest -L` run over the
#               parallel label (the thread pool, parallel sweeps,
#               scenario determinism, and — via test_obs — the span
#               buffers and campaign stats folds), coll (the
#               algorithmic collective engine), res (resilience
#               campaigns fanning seeded fault scenarios over the
#               pool) and gen (scaling sweeps fanning whole
#               generate+lower+replay pipelines over the pool)
#
# Each stage runs every selected test once.
#
# Usage:
#   scripts/dev_check.sh            # run all five stages
#   scripts/dev_check.sh --fast     # tier-1 only
#
# Environment:
#   OVLSIM_DEV_BUILD_PREFIX  build directory prefix (default build-dev)
set -euo pipefail

cd "$(dirname "$0")/.."

PREFIX="${OVLSIM_DEV_BUILD_PREFIX:-build-dev}"
JOBS="$(nproc)"
FAST=0
if [[ "${1:-}" == "--fast" ]]; then
    FAST=1
fi

stage() { # name cmake-extra-args...
    local name="$1"
    shift
    local dir="$PREFIX-$name"
    echo "== dev_check: configure + build ($name) =="
    cmake -B "$dir" -S . "$@" >/dev/null
    cmake --build "$dir" -j "$JOBS" >/dev/null
}

echo "== dev_check: stage 1/5 tier-1 =="
stage tier1 -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
(cd "$PREFIX-tier1" && ctest --output-on-failure -j "$JOBS")

if [[ "$FAST" == 1 ]]; then
    echo "dev_check: PASS (tier-1 only)"
    exit 0
fi

echo "== dev_check: stage 2/5 perfbench smoke run =="
for workload in r1-study gen-ladder resilience; do
    CARGO_TARGET_DIR="$PREFIX-perfbench" python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 1 --lanes 2
done

echo "== dev_check: stage 3/5 ASAN =="
stage asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOVLSIM_ASAN=ON
(cd "$PREFIX-asan" && ctest --output-on-failure -j "$JOBS")

echo "== dev_check: stage 4/5 UBSAN =="
stage ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOVLSIM_UBSAN=ON
(cd "$PREFIX-ubsan" && ctest --output-on-failure -j "$JOBS")

echo "== dev_check: stage 5/5 TSAN (parallel|coll|res|gen labels) =="
stage tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOVLSIM_TSAN=ON
(cd "$PREFIX-tsan" && ctest --output-on-failure -L 'parallel|coll|res|gen')

echo "dev_check: PASS (tier-1 + perfbench + ASAN + UBSAN + TSAN subsets)"

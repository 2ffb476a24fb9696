#!/usr/bin/env python3
"""Build and run the study-level benchmark.

    python3 perfbench/run.py --workload r1-study --seed 1 --seconds 20 \
        --trace 0 [--lanes 4]

Run it from the repository root. It configures and builds
perfbench/ (which builds the ovlsim library from ../src) as a Release
build under $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs one workload for --seconds seconds. The last line of
standard output is the JSON result: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. A traced run also writes
its spans as a Chrome trace (load it at ui.perfetto.dev) to
<build>/traces/, and every run leaves a record with its host facts in
<build>/results/. perfbench/METRICS.md describes the workloads and
metrics.

Exit codes: 0 when every output check passed, 1 when a check failed
or the build failed (then no result line is printed), 2 on bad
arguments.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["r1-study", "gen-ladder", "resilience"]
# A run measures for --seconds and then finishes its last pass and
# the traced run's extra passes; anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured from another checkout cannot be
        # reused; start over rather than fail inside cmake.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(build_dir)
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--parallel",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--lanes", type=int, default=4,
                        help="sweep lanes (capped at the core count)")
    args = parser.parse_args()
    if args.seconds < 1 or args.lanes < 1:
        parser.error("--seconds and --lanes must be positive")

    build_root = os.path.join(ROOT,
                              os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 1

    with open(os.path.join(HERE, "expected_digests.json"),
              encoding="utf-8") as f:
        expected = json.load(f)
    stem = "%s-seed%d" % (args.workload, args.seed)
    for sub in ("traces", "results"):
        os.makedirs(os.path.join(build_root, sub), exist_ok=True)
    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--lanes", str(args.lanes),
               "--record", os.path.join(build_root, "results",
                                        "%s-trace%d.json"
                                        % (stem, args.trace))]
    if args.seed == expected["seed"]:
        command += ["--expect-digest", expected["digests"][args.workload]]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_root, "traces", stem + ".json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())

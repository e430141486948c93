#!/usr/bin/env python3
"""Builds and runs the MIDAS end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

The first run in a checkout configures and builds the MIDAS libraries
and the midas_perfbench binary from source into .bench_build/ (Release);
later runs only re-check the build. The binary's last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}; the exit
code is non-zero when an output check failed or the build did not
succeed. Per-run artifacts (env.json, properties.json and, traced,
spans.jsonl and layers.json) land in .bench_build/results/.

Seeds: any --seed works. HELD_OUT_SEED was not used while the benchmark
and its bounds were written, so a performance claim can be re-checked on
it.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "midas_perfbench")
WORKLOADS = ["medical_history", "wide_plan_space", "serve_tenants",
             "tpch_measured"]
HELD_OUT_SEED = 73313
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: MIDAS sources (src/) are missing from this checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "midas_perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT)
        except OSError as err:
            log(f"perfbench: cannot run {step[0]}: {err}")
            return False
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return False
    return os.path.isfile(BINARY)


def git_commit():
    if os.environ.get("MIDAS_GIT_COMMIT"):
        return os.environ["MIDAS_GIT_COMMIT"]
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    out_dir = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{trace}")
    env = dict(os.environ, MIDAS_GIT_COMMIT=git_commit())
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return done.returncode, done.stdout.rstrip("\n").split("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        code, lines = run_workload(workload, args.seed, args.seconds,
                                   args.trace)
        # The binary's own last line (the result object) stays last; a
        # failed output check still reports what was measured.
        for line in lines:
            print(line, flush=True)
        if code != 0 or not lines or not lines[-1].startswith("{"):
            log(f"perfbench: {workload} failed (exit code {code})")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

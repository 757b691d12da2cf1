#!/usr/bin/env python3
"""Builds ls_bench from this checkout and runs one benchmark workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures benchmark/ (which
pulls in the repository as a subproject) into .bench_build/ and builds it;
later runs rebuild only what changed. Build output goes to standard error.

ls_bench runs with every LS_* environment knob cleared, so it measures the
defaults a user gets. Its report goes to standard output; the last line is
the result object, checked here to hold every metric BENCHMARK.json names
before it is printed. The full result with its provenance stamp, and
the trace of a traced run, are kept under .bench_build/results/.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# ls_bench bounds its own run time; this only stops a hung process.
TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_build_step(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no repository sources (CMakeLists.txt and src/)")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = max(1, min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(BUILD), "--target", "ls_bench",
                    "-j", str(jobs)])
    return BUILD / "ls_bench"


def check_result(line, traced):
    """Returns an error message, or None when `line` is a valid result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    metrics = result["metrics"]
    if set(metrics) != expected:
        return ("metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ expected)}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name}: value {value!r} is not a finite number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    bench = build()
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(bench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", f"{stem}.json"]
    if args.trace:
        cmd += ["--trace", f"{stem}.trace.json"]
    env = {k: v for k, v in os.environ.items() if not k.startswith("LS_")}
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ls_bench did not finish within {TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"ls_bench exited with {done.returncode}")
    error = check_result(lines[-1], args.trace == 1)
    if error:
        sys.stderr.write(done.stdout)
        fail(error)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 cutbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the cutbench binary (Release) from
source into $CARGO_TARGET_DIR/cutbench (default .bench_build/cutbench), runs
it, checks that its last output line is a complete result object for the
metrics BENCHMARK.json declares, and prints the binary's output. Exits
non-zero, without printing a result, when the build, the run or the check
fails.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"cutbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers under make included) and waits for it. Returns (code, stdout),
    code None on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, process_group=0, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def run_logged(cmd, log_path, timeout):
    """Runs a build step with its output in log_path; fails with its tail."""
    with open(log_path, "w") as log:
        code, _ = run_group(cmd, timeout, stdout=log, stderr=subprocess.STDOUT)
    if code is None:
        fail(f"timed out: {' '.join(cmd)}")
    if code != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail(f"failed: {' '.join(cmd)}\n{tail}")


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "cutbench")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(ROOT, "cutbench"), "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "--target", "cutbench", "-j", jobs],
               log, BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "cutbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are not correct/attempted/failed/metrics")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name} has no finite value")
        if m.get("unit") != declared[name]:
            fail(f"{name} unit {m.get('unit')} != {declared[name]}")
        if not trace and value == 0:
            fail(f"end-to-end metric {name} reads 0")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"cutbench exited with {code}")
    lines = out.strip().splitlines()
    if not lines:
        fail("cutbench printed nothing")
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

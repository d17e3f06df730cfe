#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the odq library and the benchmark runner (perfbench/CMakeLists.txt)
in Release mode into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then starts it with a pinned thread pool. The runner prints provenance
and per-phase lines and, as the last stdout line, the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. This
script checks that line against BENCHMARK.json before passing it on.

Exit codes: the runner's (0 ok, 1 an output check failed), 2 when the
checkout is incomplete or the build fails, 3 when the result line is
malformed or misses a metric BENCHMARK.json names, 4 on a timeout.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4
POOL_THREADS = 4  # util::ThreadPool size, never above nproc
# Observability switches that would add work to the timed paths.
UNSET_ENV = ("ODQ_TRACE", "ODQ_METRICS", "ODQ_TELEMETRY", "ODQ_FIDELITY",
             "ODQ_SIMD", "ODQ_FAULT")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no src/ next to {BENCH_DIR}; run from a full checkout")
        return False
    jobs = str(min(BUILD_JOBS, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"build timed out: {' '.join(cmd)}")
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def source_identity():
    """Git SHA when the checkout is a repository, plus a digest of src/."""
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json asks of this run (empty if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return set()
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("last line is not JSON")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"unexpected result keys {sorted(result)}")
        return False
    missing = expected_metrics(trace) - set(result["metrics"])
    if missing:
        log(f"result misses metrics {sorted(missing)}")
        return False
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v.get("value"), (int, float))]
    if bad:
        log(f"metrics without a numeric value: {bad}")
        return False
    return result["attempted"] >= 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        return 2
    sha, digest = source_identity()
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["ODQ_THREADS"] = str(min(POOL_THREADS, len(os.sched_getaffinity(0))))
    env["PERFBENCH_GIT_SHA"] = sha
    env["PERFBENCH_SRC_DIGEST"] = digest
    cmd = [os.path.join(build_dir, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not valid_result(lines[-1],
                                                         args.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"{args.workload} exited {proc.returncode} without a valid result")
        return proc.returncode or 3
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

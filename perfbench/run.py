#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-digests 0-31

A run builds the seagull library and the benchmark program (perfbench/)
in Release mode into the build directory ($CARGO_TARGET_DIR, default
.bench_build), runs it, checks that it reported every metric
BENCHMARK.json names for the mode (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1), and prints two lines: the run's host
and correctness record, then the result object. `--record-digests`
re-records the serving replay digests in perfbench/digests.json, by
seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the program; returns its path or None."""
    out = build_dir()
    generated = [os.path.join(out, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def git_commit():
    # Stop at the checkout: a checkout that is not a repository must not
    # report the commit of some enclosing one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_bench(binary, args, extra):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--lake-dir", os.path.join(build_dir(), "runs")] + extra
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=RUN_TIMEOUT_S)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        log("perfbench program failed with exit code", res.returncode)
        return None
    return lines[-1]


def record_digests(binary, spec):
    """Records the replay digest of every seed in `spec` ("LO-HI").
    Every workload serves the same configuration, so one table holds
    them all."""
    lo, _, hi = spec.partition("-")
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            table = json.load(f)
    for seed in range(int(lo), int(hi or lo) + 1):
        args = argparse.Namespace(workload="serve-read", seed=seed)
        line = run_bench(binary, args, ["--record-digest"])
        if line is None:
            return 1
        table[str(seed)] = line.strip()
        log(seed, table[str(seed)])
    with open(DIGESTS, "w") as f:
        json.dump(dict(sorted(table.items(), key=lambda kv: int(kv[0]))),
                  f, indent=1)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", metavar="LO-HI")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.record_digests:
        return record_digests(binary, args.record_digests)
    if args.workload not in workloads:
        log("perfbench: unknown workload", args.workload)
        return 2
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    line = run_bench(binary, args, ["--seconds", str(seconds),
                                     "--trace", str(args.trace),
                                     "--digests", DIGESTS])
    if line is None:
        return 1
    report = json.loads(line)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        got = report["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            log("perfbench: the program did not report", metric["name"],
                "in", metric["unit"])
            return 1
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    info = dict(report["info"], git_commit=git_commit())
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout, the workload's sidecars and span file to
<build>/out. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. The line before it
is the full report (provenance, gates, tails, digests). The exit code is 0
only when the build, the helper self-test and every correctness gate pass.
See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once, then builds incrementally; logs stay off stdout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ not found next to perfbench/: run from a full checkout", 2)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see " + log_path + ")")
    return bdir


def selftest(bdir, out_dir):
    r = subprocess.run([os.path.join(bdir, "perfbench_selftest"), out_dir],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(r.stderr)
    if r.returncode:
        fail("helper self-test failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bdir = build()
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    selftest(bdir, out_dir)
    if args.selftest:
        print("perfbench: self-test passed")
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    r = subprocess.run(
        [os.path.join(bdir, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace), "--out-dir", out_dir],
        stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"perfbench exited {r.returncode} without a report")

    metrics = report["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("report lacks metrics: " + ", ".join(missing))
    result = {
        "correct": bool(report["correct"]) and r.returncode == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload train_band_cnn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. The first run configures and
builds the libraries and the benchmark program into .bench_build (or
$CARGO_TARGET_DIR when set); later runs only rebuild what changed. Each
workload runs in its own process, and the last line of standard output is
the workload's result JSON. With --trace 1 the per-layer metrics are
printed instead of the end-to-end ones and the chrome trace is written to
.bench_build/trace/<workload>.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train_band_cnn", "serve_joint", "night_cascade"]
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            sys.exit(f"run.py: {need} not found under {ROOT}; "
                     "run from a full source checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def run_workload(binary, workload, args):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work, ROOT)]
    if args.trace:
        trace_dir = os.path.join(build_dir(), "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(trace_dir, workload + ".json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    binary = build()
    if args.workload != "all":
        code, out = run_workload(binary, args.workload, args)
        sys.stdout.write(out)
        return code

    # Every workload in its own process, then one merged result line whose
    # metric names carry the workload as a prefix.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_workload(binary, workload, args)
        sys.stdout.write(out)
        if code != 0:
            return code
        result = json.loads(out.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())

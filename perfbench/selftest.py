#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute, after the build).

    python3 perfbench/selftest.py

Checks that:
  * every workload exits 0 and ends its output with a result JSON of
    exactly the keys correct/attempted/failed/metrics, with no failures;
  * every workload prints exactly the end-to-end metrics of BENCHMARK.json
    untraced and exactly its per-layer metrics traced, each in its unit;
  * the traced run writes a chrome trace that parses and holds the
    benchmark's own spans;
  * the serve checker flags a deliberately corrupted reference score;
  * without the repository's sources the benchmark fails fast and
    prints no result.
"""
import json
import os
import shutil
import subprocess
import sys

import run

SPANS = {
    "train_band_cnn": ["nn.forward", "nn.backward", "nn.step", "data.batch_fetch"],
    "serve_joint": ["infer.joint_b1", "infer.joint_b32", "serve.client.send"],
    "night_cascade": ["stream.next", "stream.push", "stream.finish",
                      "infer.tier1_b64"],
}


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run_tiny(binary, workload, trace, extra=()):
    trace_file = os.path.join(run.build_dir(), "trace", f"selftest_{workload}.json")
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    work = os.path.join(run.build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--tiny", "--work-dir", work,
         "--trace-file", trace_file, *extra],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    return result, trace_file


def check_metrics(workload, result, declared, kind):
    missing = sorted(set(declared) - set(result["metrics"]))
    if missing:
        fail(f"{workload}: {kind} metrics {missing} missing")
    for name, metric in result["metrics"].items():
        if name not in declared:
            fail(f"{workload}: {name} is not a declared {kind} metric")
        if metric["unit"] != declared[name]:
            fail(f"{workload}: {name} unit {metric['unit']} != {declared[name]}")
        if not isinstance(metric["value"], (int, float)):
            fail(f"{workload}: {name} value {metric['value']!r}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    binary = run.build()

    for w in bench["workloads"]:
        workload = w["name"]
        result, _ = run_tiny(binary, workload, 0)
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            fail(f"{workload}: correct={result['correct']} "
                 f"failed={result['failed']} attempted={result['attempted']}")
        check_metrics(workload, result, end_to_end, "end_to_end")

        result, trace_file = run_tiny(binary, workload, 1)
        if not result["correct"]:
            fail(f"{workload} traced: failed={result['failed']}")
        check_metrics(workload, result, per_layer, "per_layer")
        with open(trace_file) as f:
            names = {e.get("name") for e in json.load(f)["traceEvents"]}
        missing = [s for s in SPANS[workload] if s not in names]
        if missing:
            fail(f"{workload}: trace lacks spans {missing}")
        print(f"selftest: {workload} ok ({len(names)} span names in trace)")

    result, _ = run_tiny(binary, "serve_joint", 0, ["--corrupt-reference"])
    if result["correct"] or result["failed"] < 1:
        fail("corrupted reference score was not flagged")
    print(f"selftest: corrupted reference flagged ({result['failed']} failed)")

    bare = os.path.join(run.build_dir(), "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_joint",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=170, env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("without sources the benchmark must fail and print nothing")
    print("selftest: without sources it fails fast with no result")
    print("selftest: PASS")


if __name__ == "__main__":
    main()

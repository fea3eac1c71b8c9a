#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 herebench/run.py --workload memload_raw --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (herebench/CMakeLists.txt compiles ../src) into the directory named
by $CARGO_TARGET_DIR, default .bench_build; later runs only re-check the build.

The program runs the workload's scenario repeatedly for --seconds wall
seconds and checks its correctness gates. This script prints a table of every
metric of the run, then, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics listed in
BENCHMARK.json, with --trace 1 the per-layer ones (from traced repetitions;
spans go to <build dir>/spans/). Exits non-zero without a result when the
build or the run fails.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("memload_raw", "ycsb_durable", "fleet100")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    env = dict(os.environ)
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, env=env, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(step, env=env, stdout=sys.stderr).returncode != 0:
        return None
    binary = build_dir / "herebench"
    return binary if binary.exists() else None


def load_contract():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        contract = json.load(f)
    return contract["end_to_end"], contract["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    end_to_end, per_layer = load_contract()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans-out", str(spans / f"{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"{args.workload} exited with {run.returncode}")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    scope = "traced" if args.trace else "untraced"
    table = result[scope]
    print(f"{scope} metrics ({'per-layer' if args.trace else 'end-to-end'} "
          f"rows are marked *):")
    wanted = {m["name"] for m in (per_layer if args.trace else end_to_end)}
    for name, m in table.items():
        mark = "*" if name in wanted else " "
        print(f"  {mark} {name:36s} {m['value']:>18.6g} {m['unit']:12s} "
              f"n={m['samples']:<6d} {m['kind']}")

    metrics = {}
    for spec in per_layer if args.trace else end_to_end:
        m = table.get(spec["name"])
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            log(f"metric {spec['name']} missing from the {scope} result")
            return 1
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": max(int(result["attempted"]), 1),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

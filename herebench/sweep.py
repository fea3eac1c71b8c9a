#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 herebench/sweep.py [--runs 10] [--first-seed 101] [workload ...]

Runs `python3 herebench/run.py --trace 0` once per seed on each workload
(BENCHMARK.json's run_seconds), then prints, per workload and end-to-end
metric, the median of the runs and the distance between the first and third
quartiles as a share of the median, next to the metric's bound. A spread
under a third of the bound is marked ok. Exits 1 if any run failed or was
not correct.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        contract = json.load(f)
    workloads = args.workloads or [w["name"] for w in contract["workloads"]]

    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in contract["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = subprocess.run(
                [sys.executable, "herebench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(contract["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}")
                ok = False
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for spec in contract["end_to_end"]:
            v = values[spec["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread < spec["bound"] / 3 else "WIDE"
            print(f"{workload:14s} {spec['name']:28s} median {med:12.6g} "
                  f"spread {spread:7.4f} bound {spec['bound']:.2f} {verdict}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

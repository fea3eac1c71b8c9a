#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 herebench/selftest.py [--seed 7] [--held-out-seed 1009]

For each workload: runs the benchmark program twice at a short length
(--short, traced, so every per-layer metric is produced) with the same seed
and requires every virtual-time and count metric, end-to-end and per-layer,
to be identical across the two processes and every gate to pass. Then runs
once more on a held-out seed and requires every gate to pass there too.
Builds first, exactly as run.py does. Exits 0 when everything holds.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the build step is shared)


def run_once(binary, workload, seed):
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", "1", "--short"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=run.RUN_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def deterministic(result):
    return {(scope, name): m["value"]
            for scope in ("untraced", "traced")
            for name, m in result[scope].items() if m["kind"] != "wall"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--held-out-seed", type=int, default=1009)
    args = parser.parse_args()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    binary = run.build(build_dir)
    if binary is None:
        print("selftest: build failed")
        return 1

    ok = True
    for workload in run.WORKLOADS:
        first = run_once(binary, workload, args.seed)
        second = run_once(binary, workload, args.seed)
        a, b = deterministic(first), deterministic(second)
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        held_out = run_once(binary, workload, args.held_out_seed)
        passed = (not differ and first["correct"] and second["correct"]
                  and held_out["correct"])
        ok = ok and passed
        print(f"{workload:14s} {len(a)} deterministic metrics, "
              f"{len(differ)} differ, gates {first['correct']}/{second['correct']}, "
              f"held-out seed {held_out['correct']}: {'ok' if passed else 'FAIL'}")
        for scope, name in differ[:10]:
            print(f"    {scope} {name}: {a.get((scope, name))} vs {b.get((scope, name))}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

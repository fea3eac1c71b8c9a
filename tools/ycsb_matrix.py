#!/usr/bin/env python3
"""Prints EXPERIMENTS.md's YCSB workload-A matrix and ranges from bench output.

    build/bench/fig11_ycsb_fixed_period > fig11.txt
    build/bench/fig12_ycsb_degradation  > fig12.txt
    build/bench/fig13_ycsb_combined     > fig13.txt
    python3 tools/ycsb_matrix.py fig11.txt fig12.txt fig13.txt

Each bench prints one row per YCSB workload with `Kops/s (degradation%)`
cells under configuration headers. The matrix takes workload A's
degradation from every configuration; the ranges span all six workloads
per configuration. The paper column holds the values of the paper's
Figs. 11-13.
"""
import re
import sys

PAPER_A = {
    "HERE(3s,0%)": 32, "HERE(5s,0%)": 28, "Remus(3s)": 52, "Remus(5s)": 45,
    "HERE(inf,20%)": 21, "HERE(inf,30%)": 34, "HERE(inf,40%)": 52,
    "HERE(3s,40%)": 52, "HERE(5s,30%)": 34,
}
CELL = re.compile(r"[\d.]+ \((\d+)%\)")


def parse(path):
    """Returns {config: {workload: degradation %}} for one bench output."""
    configs, table = [], {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = line.split()
            if fields and fields[0] == "Workload":
                configs = fields[2:]
                table = {c: {} for c in configs}
            elif configs and len(fields) > 2 and re.fullmatch(r"[a-f]", fields[0]):
                for config, pct in zip(configs, CELL.findall(line)):
                    table[config][fields[0]] = int(pct)
    return table


def main(paths):
    if len(paths) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    table = {}
    for path in paths:
        table.update(parse(path))
    print("| Config | paper | measured |")
    print("|---|---|---|")
    for config, paper in PAPER_A.items():
        name = config.replace("inf", "∞")
        print(f"| {name} | {paper} % | {table[config]['a']} % |")
    print()
    for config, cells in table.items():
        print(f"{config}: {min(cells.values())}–{max(cells.values())} % "
              f"over {len(cells)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

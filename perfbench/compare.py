#!/usr/bin/env python3
"""Compares two sets of saved benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the files perfbench/run.py writes to .bench_build/results/
(one per workload, seed and trace flag). For every workload and end-to-end
metric it prints both medians over seeds, the change against the base, the
base's own spread (quartile distance over median) and the bound from
BENCHMARK.json, and marks a change that is worse than its bound. The exit
code is nonzero when any row is marked.

Results from hosts with different fingerprints (CPU model, core count, SIMD
tier, build type, compiler) are not comparable: the script prints a mismatch
banner with both fingerprints and marks every row CROSS-HOST.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = {}
    fingerprints = set()
    for path in sorted(Path(directory).glob("*.json")):
        saved = json.loads(path.read_text())
        if saved["trace"]:
            continue
        fingerprints.add(json.dumps(saved["fingerprint"], sort_keys=True))
        for name, metric in saved["result"]["metrics"].items():
            runs.setdefault((saved["workload"], name), []).append(metric["value"])
    return runs, fingerprints


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, base_fp = load(args.base)
    new, new_fp = load(args.new)
    cross_host = base_fp != new_fp or len(base_fp) != 1
    if cross_host:
        print("FINGERPRINT MISMATCH: results come from different hosts or builds")
        for label, fps in (("base", base_fp), ("new", new_fp)):
            for fp in sorted(fps):
                print(f"  {label}: {fp}")

    worse = False
    print(f"{'workload':16} {'metric':16} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}")
    for (workload, name) in sorted(base):
        if (workload, name) not in new or name not in metrics:
            continue
        b = statistics.median(base[(workload, name)])
        n = statistics.median(new[(workload, name)])
        change = (n - b) / b if b else 0.0
        regress = change if metrics[name]["better"] == "lower" else -change
        flag = " WORSE" if regress > metrics[name]["bound"] else ""
        flag += " CROSS-HOST" if cross_host else ""
        worse = worse or bool(flag.strip())
        print(f"{workload:16} {name:16} {b:12.5g} {n:12.5g} {change:+8.2%} "
              f"{spread(base[(workload, name)]):7.3f} {metrics[name]['bound']:6.2f}{flag}")
    return 1 if worse or cross_host else 0


if __name__ == "__main__":
    sys.exit(main())

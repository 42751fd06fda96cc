#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Run from the repository root:

    python3 perfbench/spread.py --workloads serve_mlp,lenet_eager --runs 10

Runs each workload once per seed (seeds 1..runs) through perfbench/run.py
and prints, for every metric, the median and (q3 - q1) / median with q1 and
q3 from statistics.quantiles(values, n=4), next to the metric's bound in
BENCHMARK.json.  A spread over a third of the bound is marked "!".  The raw
values go to .bench_out/spread-<trace>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for workload in args.workloads.split(","):
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                print("%s seed %d failed with code %d" %
                      (workload, seed, proc.returncode))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (n, m["value"])
                for n, m in result["metrics"].items())), flush=True)

    print()
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            if len(vals) < 2:
                continue
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and spread > bound / 3:
                mark = "!"
            print("%-15s %-36s n=%2d median=%-12.6g spread=%.4f bound=%s %s"
                  % (workload, name, len(vals), median, spread, bound, mark))

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out",
                           "spread-%d.json" % args.trace), "w") as f:
        json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()

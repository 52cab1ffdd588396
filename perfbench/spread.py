#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 10] [--first-seed 1]

Runs perfbench/run.py once per seed and prints, per metric, the median
and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json.
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
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, out.returncode))
            return 1
        result = json.loads(lines[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name, float("nan"))
        flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
        if name != "setup_s":
            worst = max(worst, spread / bound)
        print("%-22s median %-14.6g spread %6.3f bound %.2f%s" % (
            name, med, spread, bound, flag))
        print("    " + " ".join("%.4g" % v for v in vals))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py WORKLOAD [RUNS] [FIRST_SEED]

runs the workload RUNS times (default 10), each with its own seed, for
BENCHMARK.json's run_seconds, and prints per metric the median and the
interquartile range as a share of the median, beside the metric's bound.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    first = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {}
    for seed in range(first, first + runs):
        out = subprocess.run(
            bench["command"]
            + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.splitlines()[-1]
        result = json.loads(out)
        print(f"seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}"
                         for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        print(f"{m['name']:12s} median {med:.5g}  spread {spread:.4f}  "
              f"bound {m['bound']}  ({spread / m['bound']:.2f} of bound)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-check that the work is identical: two traced runs of one seed must
report identical counts.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py [SEED] [SECONDS]

runs every workload of BENCHMARK.json twice with --trace 1 and compares
the per-op counts taken over the count window.  Exits 1 on a mismatch.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COUNTS = [
    "eventsim.events_per_op",
    "netsim.control_hops_per_op",
    "netsim.data_hops_per_op",
    "routing.spf_per_op",
    "routing.hit_ratio",
    "verif.states_per_op",
    "verif.transitions_per_op",
    "verif.oracle_checks_per_op",
    "verif.dedup_ratio",
    "gc.minor_words_per_op",
    "proto.hbh.msgs_per_op",
    "proto.reunite.msgs_per_op",
    "proto.pim_ssm.msgs_per_op",
    "proto.hpim-dm.msgs_per_op",
]


def run(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()[-1]
    return json.loads(out)["metrics"]


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    seconds = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for w in bench["workloads"]:
        a = run(bench["command"], w["name"], seed, seconds)
        b = run(bench["command"], w["name"], seed, seconds)
        for name in COUNTS:
            same = a[name]["value"] == b[name]["value"]
            ok = ok and same
            print(f"{w['name']:7s} {name:30s} {a[name]['value']:>16.6f} "
                  f"{b[name]['value']:>16.6f} {'same' if same else 'DIFFERENT'}")
    print("identical" if ok else "counts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

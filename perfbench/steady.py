#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread on one or more workloads.

    python3 perfbench/steady.py --workloads flood,stream --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed, one run at a time, and prints for
each end-to-end metric its median and its spread: the distance between
the first and third quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json. Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True, help="comma-separated names")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            start = time.monotonic()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            wall = time.monotonic() - start
            result = json.loads(out.splitlines()[-1])
            host = " ".join("%s=%.4g" % (k, result["metrics"][k]["value"])
                            for k in ("setup_s", "ops_per_s") if k in result["metrics"])
            print("%s seed %d: correct=%s attempted=%d failed=%d %s wall=%.0fs" % (
                workload, seed, result["correct"], result["attempted"], result["failed"], host,
                wall), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%-36s %14s %8s %6s" % (workload, "median", "spread", "bound"))
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            if bound is not None:
                worst = max(worst, spread / bound)
            same = len(vs) > 1 and len(set(vs)) == 1
            print("  %-34s %14.6g %8.4f %6s%s" % (
                name, med, spread, "" if bound is None else "%.3f" % bound,
                "  same value on every run" if same else ""))
    print("worst spread / bound: %.3f" % worst)


if __name__ == "__main__":
    sys.exit(main())

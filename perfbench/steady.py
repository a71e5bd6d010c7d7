#!/usr/bin/env python3
"""Steadiness check: run the benchmark repeatedly and print, per workload
and end-to-end metric, the spread of the run values against the bound
that BENCHMARK.json fixes.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--seconds S]

Run i uses seed first_seed + i. The spread is the distance between the
first and third quartiles (statistics.quantiles(values, n=4)) as a
share of the median. A spread above a third of the bound is marked
WIDE; setup_s is reported but has no spread limit. Each workload's
failed share (failed / attempted) is printed too, and must be the same
in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit("steady: %s seed %d failed (exit %d)"
                 % (workload, seed, out.returncode))
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i, args.seconds)
            results.append(r)
            print("%s seed %d: %s" % (workload, args.first_seed + i,
                  " ".join("%s=%.4g" % (k, v["value"])
                           for k, v in r["metrics"].items())), flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print("%s: correct=%s failed shares=%s" % (workload, correct, shares))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limited = name != "setup_s"
            if limited:
                worst = max(worst, spread / bound)
            mark = "" if not limited else (
                "ok" if spread <= bound / 3 else "WIDE")
            print("  %-22s median %12.4f %-5s spread %6.2f%%  bound %5.1f%%  %s"
                  % (name, med, metric["unit"], spread * 100, bound * 100,
                     mark))
    print("largest spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()

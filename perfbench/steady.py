#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs SETS sets of ten runs of every workload on the same build, seeds 1
to 10, each for run_seconds of BENCHMARK.json. Then prints, per
end-to-end metric and workload, each set's median and quartiles, the
spread of each set (inter-quartile distance over the median) and how far
the later sets' medians are worse than the first's -- each against the
metric's bound in BENCHMARK.json. Exits 1 if any spread or worsening
exceeds its bound, or if the share of failed operations differs between
runs.

    python3 perfbench/steady.py            # 2 sets
"""
import argparse
from fractions import Fraction
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {p.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    # results[set][workload] = list of run results
    results = []
    for s in range(args.sets):
        per = {}
        for w in workloads:
            per[w] = []
            for seed in SEEDS:
                r = run_once(w, seed, seconds, 0)
                per[w].append(r)
                vals = "  ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: {vals}", flush=True)
        results.append(per)

    bad = []
    for w in workloads:
        print(f"\n== {w}")
        shares = [sorted({Fraction(r["failed"], r["attempted"]) for r in results[s][w]})
                  for s in range(args.sets)]
        print("failed share per set: " + "; ".join(", ".join(str(f) for f in x) for x in shares))
        if any(len(x) != 1 for x in shares) or len({x[0] for x in shares}) != 1:
            bad.append(f"{w}: failed share differs between runs")
        print(f"{'metric':22} {'set':>3} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8} {'worse':>8} {'bound':>6}")
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            first_median = None
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[s][w]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                if first_median is None:
                    first_median = med
                    worse = 0.0
                else:
                    worse = (med - first_median) / first_median
                    if better == "higher":
                        worse = -worse
                flag = ""
                if spread > bound:
                    flag += " SPREAD"
                    bad.append(f"{w} {name}: set {s + 1} spread {spread:.3f} > bound {bound}")
                if worse > bound:
                    flag += " WORSE"
                    bad.append(f"{w} {name}: set {s + 1} median worse by {worse:.3f} > bound {bound}")
                print(f"{name:22} {s + 1:>3} {q1:14.6g} {med:14.6g} {q3:14.6g} {spread:8.4f} {worse:8.4f} {bound:6.3f}{flag}")
    if bad:
        print("\nNOT STEADY:")
        for b in bad:
            print("  " + b)
        return 1
    print("\nsteady: every spread and every median difference is within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())

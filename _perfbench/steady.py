#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload of BENCHMARK.json once per seed (seeds 1..N by default),
one run at a time, and prints for every metric its median, quartiles and
quartile spread (Q3 - Q1) / median, next to the metric's bound. A metric
is steady when its spread is below a third of its bound; setup_s is exempt
from the spread test and only its median is compared between two sets.

    python3 _perfbench/steady.py                    # 10 seeds, every workload
    python3 _perfbench/steady.py --runs 5 --workloads serve-mix
    python3 _perfbench/steady.py --save a.json      # keep the raw values
    python3 _perfbench/steady.py --against a.json --first-seed 11
                                                   # compare medians with a saved set

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, check=True, capture_output=True, text=True, timeout=900)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--save", help="write the raw values to this JSON file")
    ap.add_argument("--against", help="compare medians with a set saved by --save")
    opts = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    prev = json.load(open(opts.against)) if opts.against else {}

    values = {}
    steady = True
    for name in names:
        runs = [run_once(bench["command"], name, seed, seconds, 0)
                for seed in range(opts.first_seed, opts.first_seed + opts.runs)]
        values[name] = {m: [r[m] for r in runs] for m in bounds}
        print(f"\n{name}: {opts.runs} runs of {seconds}s")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for m, bound in bounds.items():
            med, q1, q3, s = spread(values[name][m])
            verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO NOISY")
            if m == "setup_s":
                verdict = "median only"
            elif s > bound:
                steady = False
            line = f"  {m:<12} {med:12.4f} {q1:12.4f} {q3:12.4f} {s:7.3f} {bound:6.2f}  {verdict}"
            if name in prev:
                ratio = med / statistics.median(prev[name][m]) - 1
                line += f"  vs saved {ratio:+.3f}" + (" WORSE" if ratio > bound else "")
                steady = steady and ratio <= bound
            print(line)
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

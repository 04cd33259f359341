#!/usr/bin/env python3
"""Runs one workload N times and prints each metric's spread.

    python3 perfbench/steady.py --workload serve_zipf --runs 10 --seconds 10
    python3 perfbench/steady.py --workload paper_cells --runs 5 --first-seed 101

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the table gives the median, the quartiles (Python's
statistics.quantiles(values, n=4)), min, max and the interquartile range as
a share of the median, which is the figure the end-to-end bounds in
BENCHMARK.json are set against. --json appends the raw per-run results to a
file for later comparison of two sets.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--json", help="append per-run results to this file")
    args = ap.parse_args()
    if args.runs < 4:
        raise SystemExit("--runs must be at least 4 for quartiles")

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        res = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(res)
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}", file=sys.stderr)
        if args.json:
            with open(args.json, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    **res}) + "\n")

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {args.runs} runs x {args.seconds} s, "
          f"failed share {sorted(shares)}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
          f"{'max':>12} {'iqr/med':>8}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name + ' (' + unit + ')':34} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {min(vals):12.6g} {max(vals):12.6g} {spread:8.2%}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --workload seq-z1000 --seeds 1-10 --seconds 10

Runs perfbench/run.py once per seed and prints, per metric, the median and
the interquartile range as a share of the median (statistics.quantiles with
n=4), next to the metric's bound from BENCHMARK.json. A spread under a third
of the bound is the steadiness target. `--results FILE` instead reads result
lines (one JSON object per line) saved from earlier runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--results", help="file of saved result lines")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    results = []
    if args.results:
        with open(args.results) as f:
            results = [json.loads(line) for line in f if line.strip()]
    else:
        if not args.workload:
            ap.error("--workload is required without --results")
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 args.workload, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            line = proc.stdout.strip().splitlines()[-1]
            print(line, flush=True)
            results.append(json.loads(line))

    if len(results) < 2:
        sys.exit("need at least two results")
    print(f"{len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med, iqr = spread(values)
        flag = "" if iqr < m["bound"] / 3 else "  <-- above bound/3"
        print(f"  {m['name']:<14} median {med:12.6g} {m['unit']:<4} "
              f"spread {iqr:7.4f}  bound {m['bound']}{flag}")


if __name__ == "__main__":
    main()

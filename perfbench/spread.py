#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload ingest_wire --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) and
prints, for every end-to-end metric in BENCHMARK.json, the median of the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to a
third of the metric's bound, the steadiness target. Each run's line also
shows its mean fsync and RSA sign times, so a shifted run shows whether
the disk or the CPU moved. Exits non-zero if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        ledger = {parts[1]: parts[2] for parts in
                  (line.split() for line in proc.stdout.splitlines())
                  if len(parts) > 2 and parts[0] == "metric"}
        print(f"seed {seed} ({time.monotonic() - start:.1f} s wall): "
              + " ".join(f"{n}={values[n][-1]:.4g}" for n in values)
              + f" | fsync_us={float(ledger['storage.fsync_us']):.0f}"
              f" sign_us={float(ledger['crypto.sign_us']):.0f}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"  {metric['name']:24s} median {med:12.5g} {metric['unit']:9s}"
              f" spread {spread:7.2%}  (target < {metric['bound'] / 3:.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

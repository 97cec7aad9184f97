#!/usr/bin/env python3
"""Build ProvDB from source and run one benchmark workload.

    python3 perfbench/run.py --workload ingest_wire --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
program's libraries plus the benchmark binary into .bench_build/ (later
runs rebuild only what changed). The binary's output is passed through;
its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer ones under
--trace 1 (the traced run also writes its spans to .bench_build/traces/).
Exits non-zero, without a result line, when the build fails, and non-zero
when any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "provdb_perfbench")
WORKLOADS = ("ingest_wire", "audit_mixed", "recover_audit")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: ProvDB sources (src/) not found beside perfbench/",
              file=sys.stderr)
        sys.exit(2)
    # Build chatter goes to stderr: stdout carries only the binary's report.
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "provdb_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every population (self-test)")
    parser.add_argument("--tamper", choices=("wal", "checkpoint"),
                        help="recover_audit self-test: flip one byte")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(BUILD, "work", args.workload),
           "--out", os.path.join(BUILD, "traces")]
    if args.tiny:
        cmd.append("--tiny")
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        print("perfbench: the binary printed no result line", file=sys.stderr)
        return proc.returncode or 4
    if proc.returncode == 0 and not result["correct"]:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

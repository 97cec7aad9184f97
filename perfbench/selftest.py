#!/usr/bin/env python3
"""Self-test of the ProvDB benchmark.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, must pass its checks
   and print every metric it names (`metric <name> <value> <unit>` lines)
   with a unit, and its last line must carry exactly the end-to-end
   (untraced) or per-layer (traced) metrics listed in BENCHMARK.json.
2. One byte flipped in the closed recover_audit store, once in a WAL
   segment and once in a checkpoint file, must make the run fail.

Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every metric each workload must print by name, beyond the JSON sets.
NAMED = {
    "ingest_wire": ["submit_rps", "submit_p50_ms", "submit_p99_ms",
                    "failed_ratio", "storage.fsync_us"],
    "audit_mixed": ["submit_rps", "submit_p50_ms", "submit_p99_ms",
                    "verify_p50_ms", "verify_p99_ms", "query_p50_ms",
                    "read_rps", "failed_ratio", "storage.fsync_us"],
    "recover_audit": ["recover_s", "audit_rps", "failed_ratio",
                      "storage.fsync_us"],
}


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def fail(why):
    print(f"selftest FAILED: {why}")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in NAMED:
        for trace in (0, 1):
            code, lines = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0:
                fail(f"{label} exited {code}")
            printed = {}
            for line in lines:
                parts = line.split()
                if parts and parts[0] == "metric":
                    if len(parts) < 4:
                        fail(f"{label}: metric line without a unit: {line}")
                    printed[parts[1]] = parts[3]
            result = json.loads(lines[-1])
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{label}: result {lines[-1]}")
            want = {m["name"]: m["unit"] for m in sets[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{label}: result metrics {sorted(got)} != {sorted(want)}")
            for name in list(want) + NAMED[workload]:
                if name not in printed:
                    fail(f"{label}: metric {name} not printed")
            print(f"ok   {label}: {len(printed)} metrics printed")

    for target in ("wal", "checkpoint"):
        code, lines = run("recover_audit", 0, ["--tamper", target])
        if code == 0:
            fail(f"a flipped byte in a {target} file went unnoticed")
        if lines and lines[-1].startswith("{") and json.loads(lines[-1])["correct"]:
            fail(f"tampered {target} run reported correct")
        print(f"ok   recover_audit with a flipped {target} byte fails "
              f"(exit {code})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Exact-count self-check: two traced runs must count the same work.

    python3 perfbench/selfcheck.py                 # all four workloads, seed 1
    python3 perfbench/selfcheck.py --workloads construct --seed 7

Runs ``perfbench/run.py --trace 1`` twice per workload with one seed and
compares every count-valued per-layer metric (call counts, bisection
steps, bytes, calls per item or node, atoms per call).  Exits 1 if any
differs or any operation failed.  It also prints the measure calls of the
three ``construct`` tables next to the values the seed commit gave.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = {"count", "B", "calls/item", "calls/node", "atoms/call"}
# measure calls per 201 x 101 table, 150-trial gate included, at the seed commit
SEED_TABLE_CALLS = {"var": 858064, "lambda": 1662374, "affine": 2398524}


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="construct,check,eval,represent")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] in EXACT_UNITS}
        differ = [k for k in counts if second["metrics"][k]["value"] != counts[k]]
        failed = first["failed"] + second["failed"]
        ok &= not differ and not failed
        print(f"{workload}: {len(counts)} counts, {len(differ)} differ {differ}, "
              f"{failed} failed operations")
        if workload == "construct":
            for family, seed_calls in SEED_TABLE_CALLS.items():
                calls = counts[f"measures.calls_{family}_table"]
                print(f"  {family} table: {calls} measure calls (seed commit {seed_calls})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

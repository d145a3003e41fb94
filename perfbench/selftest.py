"""Self-test of the benchmark, and the one command that prints every metric.

    python3 perfbench/selftest.py [--workload maps ...] [--seed 0]

For each workload it runs ``run.py`` untraced, then traced with
``--recheck``, and prints every metric by name with its unit.  It fails
unless every operation of both runs passed -- the traced run's operations
include the bit-for-bit comparison of the traced and untraced results, the
check that no wrapper is left installed, and an untraced iteration after
tracing that must reproduce the first -- unless the metric names match
BENCHMARK.json, and unless the layers' self times account for the traced
wall time.  About 4 iterations per workload: several minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_ACCOUNTED = 0.99  # share of the traced wall time inside girthlab's layers


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    if trace:
        cmd.append("--recheck")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    for line in lines:
        if "FAIL" in line:
            print(f"  {workload}: {line}")
    if out.returncode != 0 or not lines:
        print(out.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    expected = {
        0: [m["name"] for m in bench["end_to_end"]],
        1: [m["name"] for m in bench["per_layer"]],
    }
    ok = True
    for w in args.workload or names:
        for trace in (0, 1):
            res = run(w, args.seed, trace)
            metrics = res["metrics"]
            good = res["correct"] and res["failed"] == 0 and res["attempted"] > 0
            print(f"{w} --trace {trace}: {res['attempted']} operations, "
                  f"{res['failed']} failed{'' if good else '  FAIL'}")
            if list(metrics) != expected[trace]:
                print(f"  FAIL metric names differ from BENCHMARK.json: {sorted(metrics)}")
                good = False
            for name, m in metrics.items():
                print(f"  {w:10s} {name:36s} {m['value']:14.6g} {m['unit']}")
            if trace and metrics.get("trace.accounted_share", {}).get("value", 0) < MIN_ACCOUNTED:
                print(f"  FAIL layers' self times cover less than {MIN_ACCOUNTED} of trace.wall_s")
                good = False
            ok &= good
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

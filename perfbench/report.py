"""Run every workload once and print its metrics by name and unit.

    python3 perfbench/report.py [--seed S] [--seconds T] [--trace 0|1]

Run from the root of a relex checkout. Each workload runs through run.py,
exactly as a single-workload run would; the table has one column per
workload. Exits 1 if any run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DECK_SECONDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="all workloads, one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {}
    status = 0
    for workload in DECK_SECONDS:
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], capture_output=True, text=True)
        if out.returncode != 0:
            print(f"{workload}: run failed\n{out.stderr}", file=sys.stderr)
            return 1
        results[workload] = json.loads(out.stdout.strip().splitlines()[-1])
        if not results[workload]["correct"]:
            print(f"{workload}: outputs not correct", file=sys.stderr)
            status = 1

    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':40s} {'unit':6s}" + "".join(f" {w:>16s}" for w in results))
    for name in names:
        unit = results[next(iter(results))]["metrics"][name]["unit"]
        row = "".join(f" {r['metrics'][name]['value']:16.6g}" for r in results.values())
        print(f"{name:40s} {unit:6s}{row}")
    print(f"{'attempted / failed':47s}"
          + "".join(f" {str(r['attempted']) + ' / ' + str(r['failed']):>16s}"
                    for r in results.values()))
    return status


if __name__ == "__main__":
    sys.exit(main())

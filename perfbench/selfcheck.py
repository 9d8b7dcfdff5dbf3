"""Checks on the benchmark itself. Run from the root of a relex checkout:

    python3 perfbench/selfcheck.py [--seed S]

1. Every count the interaction map of run.py names is a count the tracer
   reports.
2. Failure accounting: synthetic ops that raise, time out, return a wrong
   answer, answer differently on a later pass, hang in their check, or
   never start must each count as failed and raise `failed_frac`.
3. For every workload, two traced runs of one deck with the same seed:
   both correct, traced outputs equal to untraced outputs, every per-layer
   count equal between the two runs, and the interaction map of run.py
   holding (non-zero where a layer is driven, zero where predicted zero).

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from run import DECK_SECONDS, INTERACTION_MAP, op_metrics
from tracer import COUNT_METRICS, RATIO_METRICS
from worker import PASSES, run_ops


@dataclass
class FakeOp:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], bytes] = lambda out: repr(out).encode()


def _raise():
    raise ValueError("injected failure")


def _hang():
    time.sleep(5.0)


def failure_accounting() -> list:
    flips = iter(range(10))
    ops = [
        FakeOp("ok", lambda: 1, lambda out: []),
        FakeOp("raises", _raise, lambda out: []),
        FakeOp("times-out", _hang, lambda out: []),
        FakeOp("wrong", lambda: 2, lambda out: ["expected 3"] if out != 3 else []),
        FakeOp("unstable", lambda: next(flips), lambda out: []),
        FakeOp("check-hangs", lambda: 1, lambda out: _hang()),
    ]
    records, _ = run_ops(ops, passes=2, budget_s=60.0, op_timeout_s=0.2)
    status = {r["kind"]: r["status"] for r in records}
    problems = []
    expected = {"ok": "ok", "raises": "error", "times-out": "timeout",
                "wrong": "wrong", "unstable": "wrong", "check-hangs": "wrong"}
    if status != expected:
        problems.append(f"statuses {status}, expected {expected}")
    metrics = op_metrics(records)
    if metrics["failed"] != 5 or abs(metrics["failed_frac"] - 5 / 6) > 1e-12:
        problems.append(f"failed_frac {metrics['failed_frac']}, expected 5/6")
    if records[2]["raw_latency_s"] > 1.0:
        problems.append(f"timed-out op ran {records[2]['raw_latency_s']:.2f} s, limit 0.2 s")
    slow = FakeOp("slow", lambda: time.sleep(0.1), lambda out: [])
    records, _ = run_ops([slow, slow], passes=1, budget_s=0.05)
    if [r["status"] for r in records] != ["ok", "skipped"] or op_metrics(records)["failed"] != 1:
        problems.append("an op left unrun by an exhausted budget did not count as failed")
    return problems


def metric_names() -> list:
    unknown = set(INTERACTION_MAP) - set(COUNT_METRICS)
    return [f"interaction map names unknown counts {sorted(unknown)}"] if unknown else []


def traced_runs(workload: str, seed: int) -> list:
    root = Path.cwd()
    seconds = str(PASSES * DECK_SECONDS[workload])
    runs = []
    for _ in range(2):
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seed", str(seed), "--seconds", seconds, "--trace", "1"],
                             cwd=root, capture_output=True, text=True, timeout=200)
        if out.returncode != 0:
            return [f"traced run exited {out.returncode}: {out.stderr.strip()[-300:]}"]
        detail = json.loads((root / ".perfbench" /
                             f"{workload}-seed{seed}-trace1.json").read_text())
        runs.append((json.loads(out.stdout.strip().splitlines()[-1]), detail))
    problems = []
    for result, detail in runs:
        if not result["correct"]:
            problems.append("traced run not correct")
        if not detail["outputs_match"]:
            problems.append("traced outputs differ from untraced outputs")
        problems += detail["map_mismatches"]
    (first, _), (second, _) = runs
    for name in COUNT_METRICS + RATIO_METRICS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name} differs between two traced runs: {a} vs {b}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="checks on the benchmark itself")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checks = [("interaction map names", metric_names),
              ("failure accounting", failure_accounting)]
    checks += [(f"traced runs of {w}", lambda w=w: traced_runs(w, args.seed))
               for w in DECK_SECONDS]
    failed = False
    for name, check in checks:
        problems = check()
        failed = failed or bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

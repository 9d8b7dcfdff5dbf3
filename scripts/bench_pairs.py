"""Alternating parent/change runs of perfbench, summarised in one JSON file.

Usage:

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH.json \\
        --workload exch-small:1101:10 --workload ndap-search:1301:5

Both directories are relex checkouts, best made with `git clone` so that
run.py records their git shas.  `--workload W:S:P` runs P pairs on seeds
S, S+1, ..., S+P-1, and P must be at least 2.  Pair i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0

in each checkout, T being `run_seconds` of BENCHMARK.json, the parent first
when i is even and the change first when it is odd; run.py writes each
result to `.perfbench/W-seedS-trace0.json` in its checkout, and the summary
is read from those files.  Both sides run with the same bytecode setting:
each reads and writes compiled bytecode only under a fresh
PYTHONPYCACHEPREFIX of its own, with PYTHONDONTWRITEBYTECODE unset, so a
stale or missing `__pycache__` in either checkout changes no timing; the
summary records the setting under "bytecode".

For every end-to-end metric of BENCHMARK.json the summary gives each side's
runs, median, quartiles and IQR (inclusive quartiles), and the number of
pairs the change won (ties count for neither side) and its `reading`:
`gain`, `worse`, `unresolved` or `within bound` (see `_reading`), together
with the seeds and the git sha and source hash each checkout's runs
recorded.  Each workload also gives each side's gauge readings in the same
form: the median
`gauge_s` of every run, the time of the fixed pure-Python loop that run.py
scales latencies by, so that summaries made at different times can be
compared for the machine's speed.  `op_kind_p50_s` gives, for each op kind
that passed in every run, each side's median per run of that kind's
latencies (`latency_s` of its ok ops) in the same form, so the summary
shows which op moved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BYTECODE = ("each side's runs read and write compiled bytecode only under a fresh "
            "PYTHONPYCACHEPREFIX of that side, PYTHONDONTWRITEBYTECODE unset")


def _workload(text: str) -> tuple[str, int, int]:
    name, first_seed, pairs = text.split(":")
    if int(pairs) < 2:  # the summary's quartiles need two runs a side
        raise argparse.ArgumentTypeError(f"{text!r}: at least 2 pairs are needed, got {pairs}")
    return name, int(first_seed), int(pairs)


def _result_path(checkout: Path, workload: str, seed: int) -> Path:
    return checkout / ".perfbench" / f"{workload}-seed{seed}-trace0.json"


def _environment(pycache_prefix: Path) -> dict:
    """The environment of one side's runs: compiled bytecode kept under
    `pycache_prefix` alone, and written there."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPYCACHEPREFIX"] = str(pycache_prefix)
    return env


def _run(checkout: Path, workload: str, seed: int, seconds: float, env: dict) -> None:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    print(f"{checkout.name}: {' '.join(command[1:])}", flush=True)
    subprocess.run(command, cwd=checkout, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=600)


def _side_summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def _reading(metric: dict) -> str:
    """`gain` when the change won at least 9 in 10 of the pairs and its median
    is better than the parent's by more than the parent's IQR; else `worse`
    when its median is worse by more than the metric's bound (a fraction of
    the parent's median); else `unresolved` when the parent's IQR is wider
    than that bound; else `within bound`."""
    parent, change = metric["parent"], metric["change"]
    sign = 1 if metric["better"] == "higher" else -1
    better_by = sign * (change["median"] - parent["median"])
    bound = metric["bound"] * (abs(parent["median"]) or 1.0)
    if metric["change_wins"] >= 0.9 * metric["pairs"] and better_by > parent["iqr"]:
        return "gain"
    if -better_by > bound:
        return "worse"
    if parent["iqr"] > bound:
        return "unresolved"
    return "within bound"


def _kind_medians(run: dict) -> dict[str, float]:
    """The median latency of each op kind's ok ops in one run."""
    latencies: dict[str, list] = {}
    for record in run["records"]:
        if record["status"] == "ok":
            latencies.setdefault(record["kind"], []).append(record["latency_s"])
    return {kind: statistics.median(values) for kind, values in latencies.items()}


def _op_kind_summary(runs: dict[str, list[dict]]) -> dict:
    medians = {side: [_kind_medians(r) for r in runs[side]] for side in SIDES}
    kinds = set.intersection(*(set(m) for side in SIDES for m in medians[side]))
    return {kind: {side: _side_summary([m[kind] for m in medians[side]]) for side in SIDES}
            for kind in sorted(kinds)}


def _checkout_facts(results: list[dict]) -> dict:
    facts = {(r["context"].get("git_sha"), r["context"]["src_sha256"]) for r in results}
    if len(facts) != 1:
        raise SystemExit(f"runs of one side come from different sources: {sorted(facts)}")
    git_sha, src_sha256 = facts.pop()
    return {"git_sha": git_sha, "src_sha256": src_sha256}


def summarize(benchmark: dict, checkouts: dict[str, Path],
              workloads: list[tuple[str, int, int]]) -> dict:
    """The summary of the run files that `workloads` (NAME, FIRST_SEED, PAIRS)
    left in each side's checkout; `benchmark` is BENCHMARK.json's content."""
    results = {side: [] for side in SIDES}
    summaries = {}
    for name, first_seed, pairs in workloads:
        seeds = list(range(first_seed, first_seed + pairs))
        runs = {side: [json.loads(_result_path(checkouts[side], name, seed).read_text())
                       for seed in seeds] for side in SIDES}
        for side in SIDES:
            results[side] += runs[side]
        metrics = {}
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            values = {side: [r["metrics"][metric]["value"] for r in runs[side]]
                      for side in SIDES}
            sign = 1 if spec["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            metrics[metric] = {"unit": spec["unit"], "better": spec["better"],
                               "bound": spec["bound"],
                               **{side: _side_summary(values[side]) for side in SIDES},
                               "change_wins": wins, "pairs": pairs}
            metrics[metric]["reading"] = _reading(metrics[metric])
        summaries[name] = {"seeds": seeds, "metrics": metrics,
                           "gauge_s": {side: _side_summary([r["gauge_s"]["median"]
                                                            for r in runs[side]])
                                       for side in SIDES},
                           "op_kind_p50_s": _op_kind_summary(runs),
                           "run_digests_equal": all(
                               p["run_digest"] == c["run_digest"]
                               for p, c in zip(runs["parent"], runs["change"]))}

    return {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {benchmark['run_seconds']:g} --trace 0",
        "order": "pair i runs the parent first when i is even, the change first when odd",
        "bytecode": BYTECODE,
        **{side: _checkout_facts(results[side]) for side in SIDES},
        "machine": {key: results["parent"][0]["context"].get(key)
                    for key in ("python", "nproc", "cpus_allowed")},
        "workloads": summaries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", type=_workload, action="append", required=True,
                        help="NAME:FIRST_SEED:PAIRS")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as caches:
        envs = {side: _environment(Path(caches) / side) for side in SIDES}
        for name, first_seed, pairs in args.workload:
            for i in range(pairs):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    _run(checkouts[side], name, first_seed + i, seconds, envs[side])

    summary = summarize(benchmark, checkouts, args.workload)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for name, entry in summary["workloads"].items():
        for metric, m in entry["metrics"].items():
            print(f"{name:16} {metric:12} {m['parent']['median']:.6g} "
                  f"(IQR {m['parent']['iqr']:.3g}) -> {m['change']['median']:.6g} "
                  f"(IQR {m['change']['iqr']:.3g}), change won {m['change_wins']}/{m['pairs']}: "
                  f"{m['reading']}")
        gauge = entry["gauge_s"]
        print(f"{name:16} {'gauge_s':12} {gauge['parent']['median']:.6g} -> "
              f"{gauge['change']['median']:.6g}")
        for kind, sides in entry["op_kind_p50_s"].items():
            print(f"{name:16} p50 of {kind}: {sides['parent']['median']:.6g} s -> "
                  f"{sides['change']['median']:.6g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

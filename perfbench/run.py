"""relex benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a relex checkout. relex is imported from the
checkout's `src/`; nothing is installed or built.

With `--trace 0` the run measures the end-to-end metrics: set-up time is
the median of several fresh interpreters, each timed from start to the
workload's inputs being built, scaled by the gauge readings of the whole
run, and the ops run untraced in another one.
With `--trace 1` the same ops run twice, untraced and then traced, in
separate fresh interpreters: the traced run gives the per-layer metrics,
its outputs must match the untraced run's, and the ratio of the two op
times is the tracing overhead.

A run is a whole number of decks: `--seconds` over PASSES times the
deck's nominal time on the reference machine (DECK_SECONDS). The work therefore
depends on `--seconds` and the seed, never on the machine's speed: a
faster program finishes sooner, latency percentiles sit at fixed ranks,
and traced counts repeat exactly.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Every run also writes
its per-op records, digests and run context to `.perfbench/` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from worker import GAUGE_REFERENCE_S, OP_TIMEOUT_S, PASSES, gauge

HERE = Path(__file__).resolve().parent

# Seconds one pass over a deck takes at the seed commit on the reference
# machine, a 2-vCPU x86-64 virtual machine (Python 3.11, scipy 1.17),
# measured while its other tenants slowed it, so that a run rarely takes
# longer than --seconds.
DECK_SECONDS = {
    "exch-small": 1.47,
    "framewise-large": 5.1,
    "ndap-search": 4.6,
    "rules-reference": 2.6,
}
# Set-up samples per run, three before the ops and four after, so that they
# fall in different phases of the machine's load. Their median is scaled by
# the median gauge reading over the same stretch: SETUP_GAUGES readings just
# before and just after each sample, and every reading of the op phase. A
# sample scaled by its own neighbouring readings alone spread more: the
# machine's speed over 75 ms of gauge says little about the next second.
SETUP_SAMPLES = 7
SETUP_GAUGES = 5
# The whole run must end within 180 s; keep a margin for exit and output.
RUN_LIMIT_S = 165.0

# Which per-layer counts each workload must drive (non-zero) and which it
# must not touch (zero), on the seed code. Checked by selfcheck.py; a
# traced run reports mismatches but does not fail on them, because an
# optimisation may legitimately remove work from a layer.
INTERACTION_MAP = {
    "randomness.xi.calls": ({"exch-small", "framewise-large"}, {"ndap-search"}),
    "randomness.ordering.calls": ({"exch-small", "framewise-large"}, {"ndap-search"}),
    "randomness.seeds.calls": ({"exch-small", "rules-reference"}, {"ndap-search"}),
    "structures.restrict.calls": ({"rules-reference", "exch-small"}, set()),
    "structures.relabel.calls": ({"rules-reference", "exch-small"}, set()),
    "structures.serialize.calls": ({"rules-reference", "exch-small"}, set()),
    "structures.key.calls": ({"rules-reference", "exch-small"}, set()),
    "embeddings.enumerate_embeddings.calls": ({"rules-reference"},
                                              {"framewise-large", "ndap-search"}),
    "embeddings.found": ({"rules-reference"}, {"framewise-large", "ndap-search"}),
    "embeddings.restrict_to.calls": ({"rules-reference"}, {"framewise-large", "ndap-search"}),
    "embeddings.initial_segment.calls": ({"rules-reference"},
                                         {"framewise-large", "ndap-search"}),
    "theory.satisfies.calls": ({"ndap-search"},
                               {"exch-small", "framewise-large", "rules-reference"}),
    "theory.enumerate_models.calls": ({"ndap-search"},
                                      {"exch-small", "framewise-large", "rules-reference"}),
    "amalgamation.check_ndap.calls": ({"ndap-search"},
                                      {"exch-small", "framewise-large", "rules-reference"}),
    "amalgamation.contains.calls": ({"ndap-search", "framewise-large"}, set()),
    "amalgamation.enumerate.calls": ({"ndap-search"}, set()),
    "amalgamation.amalgam_classes.calls": ({"framewise-large", "exch-small"}, {"ndap-search"}),
    "rules.decide.calls": ({"rules-reference"},
                           {"exch-small", "framewise-large", "ndap-search"}),
    "rules.context_key.calls": ({"rules-reference"},
                                {"exch-small", "framewise-large", "ndap-search"}),
    "samplers.sample.calls": ({"framewise-large", "exch-small", "rules-reference"},
                              {"ndap-search"}),
    "samplers.amalgamation_failures": (set(), set(DECK_SECONDS)),
    "stattests.empirical_law.calls": ({"exch-small", "rules-reference"},
                                      {"framewise-large", "ndap-search"}),
    "stattests.equal_law.calls": ({"exch-small", "rules-reference"},
                                  {"framewise-large", "ndap-search"}),
    "stattests.chi2_sf.calls": ({"exch-small", "rules-reference"},
                                {"framewise-large", "ndap-search"}),
    "stattests.probes": ({"exch-small", "rules-reference"}, {"framewise-large", "ndap-search"}),
}


class BenchError(RuntimeError):
    pass


def decks_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / (PASSES * DECK_SECONDS[workload])))


# --- worker processes ---------------------------------------------------------

def spawn(root: Path, argv: list, deadline: float, python_flags=(), stderr=None):
    """Run perfbench/worker.py; return (seconds until READY, parsed result).

    The result is None for `setup` mode, which exits after READY.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    # relex makes no BLAS call worth a thread. numpy's default OpenBLAS pool
    # starts one thread per core at import, and on two shared cores they
    # contend with the importing thread: eight back-to-back set-ups took
    # 0.98 to 1.56 s with the pool and 0.97 to 1.12 s with one thread.
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, *python_flags, str(HERE / "worker.py"), *argv]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=stderr, bufsize=0) as proc:
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                if not sel.select(timeout=max(0.0, deadline - perf_counter())):
                    raise BenchError(f"worker {argv[0]} not ready in time")
            line = proc.stdout.readline()
            setup_s = perf_counter() - start
            if line.strip() != b"READY":
                raise BenchError(f"worker {argv[0]} failed during set-up")
            out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
        except (subprocess.TimeoutExpired, BenchError):
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchError(f"worker {argv[0]} exited with code {proc.returncode}")
    if argv[0] == "setup":
        return setup_s, None
    return setup_s, json.loads(out.decode().strip().splitlines()[-1])


def setup_sample(root: Path, argv: list, deadline: float) -> tuple:
    """(seconds as clocked, gauge readings around it) for one set-up."""
    readings = [gauge() for _ in range(SETUP_GAUGES)]
    setup_s, _ = spawn(root, ["setup", *argv], deadline)
    readings += [gauge() for _ in range(SETUP_GAUGES)]
    return setup_s, readings


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules, in seconds,
    from `python -X importtime` output (children print before parents)."""
    entries = []
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "imported package" in line:
            continue
        field = parts[2].rstrip()
        entries.append((len(field) - len(field.lstrip()), field.strip(), int(parts[1])))
    total_us = 0
    ancestors: list = []
    for depth, name, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(a[1] for a in ancestors):
            total_us += cumulative_us
        ancestors.append((depth, is_scipy))
    return total_us / 1e6


# --- metrics ------------------------------------------------------------------

def op_metrics(records: list, key: str = "latency_s") -> dict:
    """End-to-end op metrics and the facts behind them, from per-op records.

    `key` picks the latency: `latency_s`, scaled to reference speed, or
    `raw_latency_s`, as the clock read it. A failed op counts as missing
    any latency limit: its latency is taken as at least the per-op timeout.
    Skipped ops count as failed and have no latency.
    """
    ran = [r for r in records if r["status"] != "skipped"]
    failed = sum(r["status"] != "ok" for r in records)
    returned = sum(r["status"] in ("ok", "wrong") for r in ran)
    busy_s = sum(r[key] for r in ran)
    latencies = sorted(r[key] if r["status"] == "ok" else max(r[key], OP_TIMEOUT_S)
                       for r in ran)
    n = len(latencies)
    if n == 0:
        raise BenchError("no op ran")
    # The highest percentile that still has at least ten ops beyond it. In
    # runs of under 21 ops that percentile falls below the median, and the
    # slowest op stands in for it.
    tail_index = n - 11 if n >= 21 else n - 1
    return {
        "ops_per_s": returned / busy_s if busy_s > 0 else 0.0,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": latencies[tail_index],
        "ok_frac": 1.0 - failed / len(records),
        "failed_frac": failed / len(records),
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "ops_timed": n,
        "busy_s": busy_s,
        "attempted": len(records),
        "failed": failed,
        "status_counts": {s: sum(r["status"] == s for r in records)
                          for s in sorted({r["status"] for r in records})},
    }


def map_mismatches(workload: str, layers: dict) -> list:
    out = []
    for name, (nonzero, zero) in INTERACTION_MAP.items():
        if workload in nonzero and not layers[name]:
            out.append(f"{name} is 0 on {workload}, predicted non-zero")
        if workload in zero and layers[name]:
            out.append(f"{name} is {layers[name]} on {workload}, predicted 0")
    return out


def gauge_summary(gauges: list) -> dict:
    q = statistics.quantiles(gauges, n=4) if len(gauges) > 1 else gauges * 3
    return {"readings": len(gauges), "min": min(gauges), "q1": q[0], "median": q[1],
            "q3": q[2], "max": max(gauges)}


def run_digest(records: list) -> str:
    h = hashlib.blake2b(digest_size=16)
    for r in records:
        h.update(f"{r['kind']}={r['digest']};".encode())
    return h.hexdigest()


# --- run context --------------------------------------------------------------

def git_sha(root: Path):
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "relex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_context(root: Path) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": git_sha(root),
        "src_sha256": src_digest(root),
        "python": platform.python_version(),
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


# --- main ---------------------------------------------------------------------

def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    """Run the workload; return (metrics, correct, attempted, failed, detail)."""
    deadline = perf_counter() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed),
              "--decks", str(decks_for(workload, seconds))]
    detail: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "decks": decks_for(workload, seconds),
                    "context": run_context(root)}

    def budget(share: float) -> list:
        return ["--budget-s", f"{max(5.0, (deadline - perf_counter()) * share - 15.0):.1f}"]

    if not trace:
        setups = [setup_sample(root, common, deadline) for _ in range(SETUP_SAMPLES // 2)]
        _, result = spawn(root, ["run", *common, *budget(0.85)], deadline)
        setups += [setup_sample(root, common, deadline)
                   for _ in range(SETUP_SAMPLES - len(setups))]
        ops = op_metrics(result["records"])
        metrics = {key: ops[key] for key in ("ops_per_s", "op_p50_s", "op_tail_s", "ok_frac")}
        gauges = [g for _, readings in setups for g in readings] + result["gauge_s"]
        metrics["setup_s"] = (statistics.median(s for s, _ in setups)
                              * GAUGE_REFERENCE_S / statistics.median(gauges))
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        detail.update(setup_samples_s=[s for s, _ in setups],
                      setup_gauges_s=[readings for _, readings in setups], ops=ops,
                      raw_ops=op_metrics(result["records"], "raw_latency_s"),
                      run_digest=run_digest(result["records"]),
                      gauge_s=gauge_summary(result["gauge_s"]), records=result["records"])
        correct = ops["failed"] == 0
        attempted, failed = ops["attempted"], ops["failed"]
    else:
        out_dir = root / ".perfbench"
        log = out_dir / f"importtime-{workload}-{seed}.log"
        with open(log, "wb") as fh:
            import_setup_s, _ = spawn(root, ["setup", *common], deadline,
                                      python_flags=("-X", "importtime"), stderr=fh)
        scipy_s = scipy_import_s(log.read_text())
        _, plain = spawn(root, ["run", *common, *budget(0.4)], deadline)
        _, traced = spawn(root, ["run", *common, *budget(1.0), "--trace"], deadline)
        plain_ops, traced_ops = op_metrics(plain["records"]), op_metrics(traced["records"])
        same_outputs = ([r["digest"] for r in plain["records"]]
                        == [r["digest"] for r in traced["records"]])
        metrics = dict(traced["layers"])
        metrics["import.scipy_s"] = scipy_s
        metrics["import.scipy_frac"] = scipy_s / import_setup_s
        metrics["trace.overhead_frac"] = traced_ops["busy_s"] / plain_ops["busy_s"] - 1.0
        mismatches = map_mismatches(workload, metrics)
        for line in mismatches:
            print(f"interaction map: {line}", file=sys.stderr)
        detail.update(ops=traced_ops, untraced_ops=plain_ops, outputs_match=same_outputs,
                      run_digest=run_digest(traced["records"]),
                      untraced_run_digest=run_digest(plain["records"]),
                      map_mismatches=mismatches, gauge_s=gauge_summary(traced["gauge_s"]),
                      records=traced["records"])
        if not same_outputs:
            print("traced outputs differ from untraced outputs", file=sys.stderr)
        correct = same_outputs and plain_ops["failed"] == 0 and traced_ops["failed"] == 0
        attempted, failed = traced_ops["attempted"], traced_ops["failed"]
    detail["context"]["loadavg_end"] = os.getloadavg()
    return metrics, correct, attempted, failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DECK_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "relex" / "__init__.py").is_file():
        print("run from the root of a relex checkout: src/relex not found", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    (root / ".perfbench").mkdir(exist_ok=True)
    try:
        values, correct, attempted, failed, detail = measure(
            root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    path = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(detail, metrics=metrics), indent=1))
    ops = detail["ops"]
    print(f"{args.workload} seed={args.seed} decks={detail['decks']} ops={ops['attempted']} "
          f"failed_frac={ops['failed_frac']:.4f} tail=p{ops['tail_percentile']:.1f} "
          f"of {ops['ops_timed']} ops, digest {detail['run_digest']}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    if "raw_ops" in detail:
        raw = detail["raw_ops"]
        print(f"  as clocked: setup_s {statistics.median(detail['setup_samples_s']):.6g}, "
              f"ops_per_s {raw['ops_per_s']:.6g}, op_p50_s {raw['op_p50_s']:.6g}, "
              f"op_tail_s {raw['op_tail_s']:.6g}; gauge median {detail['gauge_s']['median']:.6g} s "
              f"(reference {GAUGE_REFERENCE_S} s)")
    print(f"  detail: {path.relative_to(root)}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, then run its ops in a closed loop.

Run by run.py in a fresh interpreter, from the checkout root, with `src` on
PYTHONPATH:

    python3 perfbench/worker.py setup --workload W --seed S --decks D
    python3 perfbench/worker.py run   --workload W --seed S --decks D [--trace]

Both print READY once relex is imported and the workload's inputs are
built; run.py times set-up up to that line. `setup` exits there. `run`
then sends one op at a time, each only after the previous one returned,
makes PASSES passes over the op list, checks each output outside the timed
call, and prints one JSON line with the per-op records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

# An op slower than this is stopped and counted as failed. The slowest op
# of any workload takes under 2 s on the reference machine.
OP_TIMEOUT_S = 10.0
# Each op runs in this many passes over the op list; its latency is the
# median of its gauge-scaled passes (see run_ops).
PASSES = 3


class OpTimeout(BaseException):
    """Raised inside an op by the per-op alarm. A BaseException, so that no
    `except Exception` in the code under test swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


# The gauge: a fixed pure-Python loop timed between op calls. Its time on
# the reference machine when no other tenant slowed it.
GAUGE_ITERATIONS = 50_000
GAUGE_REFERENCE_S = 0.0075
# A reading is scaled by the median of this many gauge readings around it.
GAUGE_WINDOW = 6


def gauge() -> float:
    """Seconds for the fixed loop: how fast the machine runs Python now."""
    start = perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(GAUGE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFF
        table[i & 1023] = acc
    return perf_counter() - start


def run_ops(ops, passes: int, budget_s: float, tracer=None,
            op_timeout_s: float = OP_TIMEOUT_S) -> tuple:
    """Run the op list `passes` times, one op at a time.

    Returns one record per op and the gauge readings. An op's latency is
    the median of its passes, each reading scaled to reference speed.

    The reference machine shares its cores with other tenants, and its
    speed swings by up to half from one stretch of seconds to the next.
    Two things keep those swings out of the numbers. The gauge runs before
    every call, and a reading is multiplied by GAUGE_REFERENCE_S over the
    median gauge time around it. Passes over the whole list spread one op's
    readings over the run, and their median ignores a stretch that covers
    a minority of them. Only the call is timed. The first pass checks each
    output; later passes must reproduce its digest.

    Status is `ok`, `error` (the call raised), `timeout`, `wrong` (the check
    found problems, or a later pass gave another output) or `skipped` (the
    run's budget ran out before the op's first pass).
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    deadline = perf_counter() + budget_s
    records = [{"kind": op.kind, "latency_s": None, "raw_latency_s": None, "status": "ok",
                "digest": None, "readings": []} for op in ops]
    gauges = [gauge()]
    try:
        for first_pass in [True] + [False] * (passes - 1):
            for op, record in zip(ops, records):
                if record["status"] != "ok":
                    continue
                if perf_counter() > deadline:
                    if first_pass:
                        record["status"] = "skipped"
                    continue
                status, out, latency = _timed_call(op, tracer, op_timeout_s)
                # (seconds, index of the gauge reading just before the call)
                record["readings"].append((latency, len(gauges) - 1))
                gauges.append(gauge())
                if status != "ok":
                    record["status"] = status
                    record["error"] = out
                    continue
                signal.setitimer(signal.ITIMER_REAL, op_timeout_s)
                try:
                    problems = op.check(out) if first_pass else []
                    digest = hashlib.blake2b(op.digest(out), digest_size=16).hexdigest()
                except OpTimeout:
                    problems, digest = [f"check ran over {op_timeout_s} s"], None
                except Exception as exc:
                    problems, digest = [f"check raised {type(exc).__name__}: {exc}"], None
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                if not first_pass and digest != record["digest"]:
                    problems.append("output differs from the first pass")
                record["digest"] = record["digest"] or digest
                if problems:
                    record["status"] = "wrong"
                    record["problems"] = problems
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for record in records:
        if record["readings"]:
            record["raw_latency_s"] = statistics.median(s for s, _ in record["readings"])
            record["latency_s"] = statistics.median(
                s * GAUGE_REFERENCE_S / _local_gauge(gauges, k) for s, k in record["readings"])
    return records, gauges


def _local_gauge(gauges: list, k: int) -> float:
    """Median of the GAUGE_WINDOW gauge readings centred on the call after
    reading k."""
    lo = max(0, min(k + 1 - GAUGE_WINDOW // 2, len(gauges) - GAUGE_WINDOW))
    return statistics.median(gauges[lo:lo + GAUGE_WINDOW])


def _timed_call(op, tracer, op_timeout_s: float):
    """(status, output or error text, seconds) for one call of the op."""
    signal.setitimer(signal.ITIMER_REAL, op_timeout_s)
    start = perf_counter()
    try:
        if tracer is None:
            out = op.call()
        else:
            tracer.enabled = True
            try:
                out = tracer.span("op", op.call)
            finally:
                tracer.enabled = False
        status = "ok"
    except OpTimeout:
        status, out = "timeout", f"no result within {op_timeout_s} s"
    except Exception as exc:
        status, out = "error", f"{type(exc).__name__}: {exc}"
    finally:
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, out, end - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--decks", type=int, required=True)
    parser.add_argument("--budget-s", type=float, default=120.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    import workloads
    import relex
    if Path(relex.__file__).resolve().parent != (root / "src" / "relex").resolve():
        print(f"relex imported from {relex.__file__}, not from this checkout", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.decks, root)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    records, gauges = run_ops(ops, PASSES, args.budget_s, tracer)
    result = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gauge_s": gauges,
        "layers": tracer.metrics() if tracer else None,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

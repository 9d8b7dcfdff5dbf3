"""The four benchmark workloads, as decks of seeded ops with their checks.

A deck holds every op kind of a workload in fixed proportions, shuffled by
the workload seed; a run is a whole number of decks. Inputs are drawn from
`random.Random`, never from relex, so relex only receives generated inputs.
Every op's call goes through a module attribute looked up at call time
(`stattests.test_exchangeability`, not a name bound at import), so the
tracer's rebinding of those attributes reaches the calls the ops make.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from relex import amalgamation, catalog, randomness, samplers, stattests, structures, theory


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    # returns the problems found in the op's output; empty when correct
    check: Callable[[object], list]
    # bytes identifying the op's output, for determinism tracking
    digest: Callable[[object], bytes]


def _src(seed: int):
    return randomness.HierarchicalRandomSource(seed)


def _report_problems(report, name: str) -> list:
    problems = []
    if report.name != name:
        problems.append(f"report name {report.name!r}, expected {name!r}")
    if not report.details.get("probes", 0) > 0:
        problems.append("report ran no probes")
    if not 0.0 <= report.p_value <= 1.0:
        problems.append(f"p-value {report.p_value!r} outside [0, 1]")
    return problems


def _report_digest(report) -> bytes:
    return json.dumps([report.name, report.passed, repr(report.p_value),
                       repr(report.statistic), report.dof,
                       report.details.get("probes")]).encode()


def _structure_digest(structure) -> bytes:
    return structures.serialize(structure).encode()


# --- exch-small: the c09 shape, many tiny samples ----------------------------------

def _exch_small(rng: random.Random, shared: dict) -> list:
    if "framewise" not in shared:
        shared["framewise"] = samplers.FramewiseSampler(amalgamation.builtin_class("graphs"))
        shared["violator"] = catalog.LoopViolatorSampler()
    ops = []
    for kind in ("framewise", "violator"):
        sampler = shared[kind]
        meta_seed = rng.getrandbits(32)

        def call(sampler=sampler, meta_seed=meta_seed):
            return stattests.test_exchangeability(sampler, n=3, n_samples=300,
                                                  alpha=0.01, meta_seed=meta_seed)

        def check(report, kind=kind):
            problems = _report_problems(report, "exchangeability")
            if kind == "violator" and report.passed:
                problems.append("loop violator passed the exchangeability test")
            return problems

        ops.append(Op(f"exch-{kind}", call, check, _report_digest))
    return ops


# --- framewise-large: few samples, every one of the 2^n subsets visited -----------

FRAMEWISE_LARGE = (("graphs", (10, 11, 12)), ("tournaments", (10, 11, 12)),
                   ("hypergraphs3", (8, 9, 10)))


def _framewise_large(rng: random.Random, shared: dict) -> list:
    ops = []
    for name, sizes in FRAMEWISE_LARGE:
        klass = amalgamation.builtin_class(name)
        for n in sizes:
            seed = rng.getrandbits(63)
            m = rng.randint(1, n - 3)

            def call(klass=klass, n=n, seed=seed):
                return samplers.FramewiseSampler(klass).sample(_src(seed), n)

            def check(sample, klass=klass, n=n, m=m, seed=seed):
                problems = []
                if sample.n != n or not klass.contains(sample):
                    problems.append(f"sample is not a member of {klass.name} on [1, {n}]")
                small = samplers.FramewiseSampler(klass).sample(_src(seed), m)
                if structures.restrict(sample, range(1, m + 1)) != small:
                    problems.append(f"restriction to [1, {m}] differs from sample({m})")
                return problems

            ops.append(Op(f"framewise-{name}-{n}", call, check, _structure_digest))
    return ops


# --- ndap-search: exact amalgamation search on freshly built classes ----------------

NDAP_BUILTIN = (("graphs", (3, 4, 5)), ("digraphs", (3, 4)), ("tournaments", (3, 4)),
                ("equivalence", (3, 4)), ("parity3", (3, 4)),
                ("hypergraphs3", (3, 4)), ("subsets", (3, 4)))
NDAP_THEORIES = ("equivalence", "hypergraphs3", "digraphs_loopfree", "graphs",
                 "oriented_graphs")
NDAP_THEORY_SIZES = (2, 3, 4)
# Known n-DAP failures; every other listed pair holds.
NDAP_FAILS = {("equivalence", 3), ("parity3", 4)}


def _ndap_search(rng: random.Random, shared: dict) -> list:
    if "theories" not in shared:
        shared["theories"] = {
            name: theory.load_theory(str(shared["root"] / "theories" / f"{name}.th"))
            for name in NDAP_THEORIES}
    pairs = [("builtin", name, n, lambda name=name: amalgamation.make_builtin_class(name))
             for name, sizes in NDAP_BUILTIN for n in sizes]
    pairs += [("theory", name, n, lambda th=shared["theories"][name]: amalgamation.from_theory(th, cap=4))
              for name in NDAP_THEORIES for n in NDAP_THEORY_SIZES]
    ops = []
    for kind, name, n, make in pairs:
        expected = (name, n) not in NDAP_FAILS

        def call(make=make, n=n):
            klass = make()
            return klass, amalgamation.check_ndap(klass, n)

        def check(out, n=n, expected=expected):
            klass, report = out
            if report.n != n or report.holds != expected:
                return [f"{n}-DAP holds={report.holds}, expected {expected}"]
            if not report.holds:
                family = report.witness_family or []
                if len(family) != n:
                    return [f"witness family has {len(family)} members, expected {n}"]
                if amalgamation.amalgams(family, klass)[0]:
                    return ["witness family has an amalgam"]
            return []

        def digest(out):
            _, report = out
            family = report.witness_family or []
            return json.dumps([report.holds] + [structures.serialize(s)
                                                for s in family]).encode()

        ops.append(Op(f"ndap-{kind}-{name}-{n}", call, check, digest))
    return ops


# --- rules-reference: rule samplers reading a reference structure -------------------

# Sizes are fixed and only sources are seeded, so that every deck costs the
# same. Four parity-overlay ops make a deck of 11: with an odd op count the
# median and the tail of a three-deck run fall inside a block of one kind,
# not on the step between two kinds of different cost.
TWO_COIN_SIZES = (100, 200, 300)
WEAK_REP_SIZES = (8, 9, 10)
PARITY_OVERLAY_PER_DECK = 4


def _rules_reference(rng: random.Random, shared: dict) -> list:
    if "two_coin" not in shared:
        shared["two_coin"] = catalog.two_coin_rules()
        shared["weak_rep"] = catalog.weak_rep_rules()
    two_coin, weak_rep = shared["two_coin"], shared["weak_rep"]

    def two_coin_sample(seed, n):
        sampler = samplers.MExchangeableSampler(two_coin, catalog.evens_oracle())
        return sampler.sample(_src(seed), n)

    ops = []
    for n in TWO_COIN_SIZES:
        seed, m = rng.getrandbits(63), rng.randint(1, 20)

        def check(sample, n=n, seed=seed, m=m):
            problems = []
            if sample.n != n:
                problems.append(f"sample has {sample.n} points, expected {n}")
            if structures.restrict(sample, range(1, m + 1)) != two_coin_sample(seed, m):
                problems.append(f"restriction to [1, {m}] differs from sample({m})")
            return problems

        ops.append(Op("rules-two-coin", lambda seed=seed, n=n: two_coin_sample(seed, n),
                      check, _structure_digest))

    for _ in range(PARITY_OVERLAY_PER_DECK):
        seed = rng.getrandbits(63)

        def call(seed=seed):
            return catalog.paper_example("parity-overlay", 6, _src(seed))

        def check(out):
            oracle, sample = out
            reference = oracle.initial_segment(6)
            violations = 0
            for triple in itertools.combinations(range(1, 7), 3):
                pairs = sum(sample.has("S", pair) for pair in itertools.combinations(triple, 2))
                violations += (pairs % 2 == 0) != reference.has("R", triple)
            return [f"{violations} parity-overlay violations"] if violations else []

        def digest(out):
            oracle, sample = out
            return (_structure_digest(oracle.initial_segment(6)) + b"|"
                    + _structure_digest(sample))

        ops.append(Op("rules-parity-overlay", call, check, digest))

    for n in WEAK_REP_SIZES:
        seed = rng.getrandbits(63)

        def call(seed=seed, n=n):
            sampler = samplers.MaxSegSampler(weak_rep, catalog.same_class_triple_oracle())
            return sampler.sample(_src(seed), n)

        def check(sample):
            if sample.has("S", (1, 2)) == sample.has("S", (1, 3)):
                return ["not exactly one of S(1,2), S(1,3)"]
            return []

        ops.append(Op("rules-weak-rep", call, check, _structure_digest))

    meta_seed = rng.getrandbits(32)

    def relative(meta_seed=meta_seed):
        sampler = samplers.MExchangeableSampler(two_coin, catalog.evens_oracle())
        return stattests.test_relative_exchangeability(
            sampler, catalog.evens_oracle(), n=2, n_samples=100, alpha=0.01,
            meta_seed=meta_seed)

    ops.append(Op("rules-relative-exch", relative,
                  lambda report: _report_problems(report, "relative-exchangeability"),
                  _report_digest))
    return ops


_BUILDERS = {
    "exch-small": _exch_small,
    "framewise-large": _framewise_large,
    "ndap-search": _ndap_search,
    "rules-reference": _rules_reference,
}


def build(workload: str, seed: int, decks: int, root: Path) -> list:
    """`decks` shuffled decks of the workload's ops, drawn from `seed`.

    `root` is the checkout whose theories/ the ndap-search workload reads.
    """
    rng = random.Random(f"{workload}:{seed}")
    builder = _BUILDERS[workload]
    shared: dict = {"root": root}
    ops = []
    for _ in range(decks):
        deck = builder(rng, shared)
        rng.shuffle(deck)
        ops.extend(deck)
    return ops


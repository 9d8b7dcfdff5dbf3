"""Named reference structures, ready-made rule sets, and checkable claims.

Each entry pairs a concretely constructed reference structure (as a lazy
restriction oracle) with a sampler whose output is tied to it, plus a
verification routine for the structural or statistical claim the pair is
known to satisfy.  The four named examples are written once, in `_EXAMPLES`,
which `paper_example`, the CLI and `verify-paper-examples` read.
"""

from __future__ import annotations

import functools
import itertools

from .amalgamation import _odd_triples, builtin_class
from .embeddings import LazyStructure
from .randomness import HierarchicalRandomSource, SeedStream
from .rules import (FunctionDecisionFunction, TableDecisionFunction,
                    TableEntry, context_key)
from .samplers import (FramewiseSampler, MaxSegSampler, MExchangeableSampler,
                       sample_framewise)
from .stattests import _tally
from .structures import GRAPH_SIGNATURE, UNARY_SIGNATURE, Signature, Structure

TRIPLE_SIG = Signature((("R", 3),))
OVERLAY_SIG = Signature((("E", 2), ("R", 3)))


# --- reference oracles ----------------------------------------------------------

def evens_oracle() -> LazyStructure:
    """Unary P holding exactly the even numbers."""
    def builder(m: int) -> Structure:
        return Structure._trusted(UNARY_SIGNATURE, m, {"P": [(i,) for i in range(2, m + 1, 2)]})
    return LazyStructure(UNARY_SIGNATURE, builder)


def same_class_triple_oracle() -> LazyStructure:
    """Ternary R(i, j, k) iff j and k fall in the same block relative to i.

    Relative to each i the base set splits into three blocks: {i}, the
    other evens, and the other odds; the triples are built block by block.
    """
    def builder(m: int) -> Structure:
        tuples = []
        for i in range(1, m + 1):
            tuples.append((i, i, i))
            for parity in (2, 1):
                block = [x for x in range(parity, m + 1, 2) if x != i]
                tuples.extend((i, j, k) for j in block for k in block)
        return Structure._trusted(TRIPLE_SIG, m, {"R": tuples})
    return LazyStructure(TRIPLE_SIG, builder)


def odd_target_oracle() -> LazyStructure:
    """Binary E(i, j) iff j is odd and j != i."""
    def builder(m: int) -> Structure:
        tuples = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1, 2) if j != i]
        return Structure._trusted(GRAPH_SIGNATURE, m, {"E": tuples})
    return LazyStructure(GRAPH_SIGNATURE, builder)


def parity_overlay_oracle(src: HierarchicalRandomSource) -> LazyStructure:
    """A frame-wise random graph E together with its odd-pair-count triples R.

    R(x, y, z) holds for distinct x, y, z exactly when an odd number of the
    three pairs within {x, y, z} are E-edges.  Both parts are driven by the
    given source, so the oracle is a pure function of the seed (and
    consistent across segment sizes, since the graph sampler is projective).
    """
    graphs = builtin_class("graphs")

    def builder(m: int) -> Structure:
        graph = sample_framewise(graphs, m, src)
        edges = graph.tuples("E")
        return Structure._trusted(OVERLAY_SIG, m, {"E": edges, "R": _odd_triples(m, set(edges))})
    return LazyStructure(OVERLAY_SIG, builder)


# --- rule sets ------------------------------------------------------------------

def random_graph_rules() -> dict:
    """Symmetric edge iff xi_{i,j} falls below 1/2; no loops."""
    df = TableDecisionFunction(
        "E", 2,
        entries=(TableEntry(bit=True, pattern=(0, 1),
                            thresholds=(((1, 2), frozenset({0})),)),),
        default=False, context_mode="none", partition=(0.5,))
    return {"E": df}


def tournament_rules() -> dict:
    """Arc (i, j) iff i precedes j in the keyed ordering of {i, j}."""
    df = TableDecisionFunction(
        "E", 2,
        entries=(TableEntry(bit=True, pattern=(0, 1),
                            orderings=(((1, 2), (0, 1)),)),),
        default=False, context_mode="none")
    return {"E": df}


def complete_graph_rules() -> dict:
    """Every off-diagonal pair is an edge."""
    df = TableDecisionFunction(
        "E", 2,
        entries=(TableEntry(bit=True, pattern=(0, 1)),),
        default=False, context_mode="none")
    return {"E": df}


def _cells_below(partition: tuple[float, ...], theta: float) -> frozenset:
    """Partition cells lying entirely below theta (theta must be a breakpoint)."""
    rights = list(partition) + [1.0]
    return frozenset(i for i, right in enumerate(rights) if right <= theta)


def _unary_context_keys() -> tuple[str, str]:
    with_p = Structure(UNARY_SIGNATURE, 1, {"P": [(1,)]})
    without_p = Structure(UNARY_SIGNATURE, 1)
    return context_key(with_p, (1,)), context_key(without_p, (1,))


def two_coin_rules(theta0: float = 0.3, theta1: float = 0.7) -> dict:
    """P(i) with probability theta1 when the reference holds P at i, else theta0."""
    partition = tuple(sorted({theta0, theta1}))
    key_in, key_out = _unary_context_keys()
    entries = (
        TableEntry(bit=True, context_key=key_in,
                   thresholds=(((1,), _cells_below(partition, theta1)),)),
        TableEntry(bit=True, context_key=key_out,
                   thresholds=(((1,), _cells_below(partition, theta0)),)),
    )
    df = TableDecisionFunction("P", 1, entries=entries, default=False,
                               context_mode="restriction", partition=partition)
    return {"P": df}


def mixed_two_coin_rules(components: tuple[tuple[float, float], ...] = ((0.1, 0.2), (0.8, 0.9)),
                         split: float = 0.5) -> dict:
    """Two-coin rule whose (theta0, theta1) pair is selected by xi_empty.

    xi_empty below `split` selects components[0], otherwise components[1].
    The shared xi_empty makes restrictions to disjoint sets dependent.
    """
    if len(components) != 2:
        raise ValueError("exactly two mixture components are supported")
    breakpoints = {split}
    for theta0, theta1 in components:
        breakpoints.update((theta0, theta1))
    partition = tuple(sorted(breakpoints))
    low_cells = _cells_below(partition, split)
    high_cells = frozenset(range(len(partition) + 1)) - low_cells
    key_in, key_out = _unary_context_keys()
    entries = []
    for cells, (theta0, theta1) in zip((low_cells, high_cells), components):
        entries.append(TableEntry(bit=True, context_key=key_in,
                                  thresholds=(((), cells),
                                              ((1,), _cells_below(partition, theta1)))))
        entries.append(TableEntry(bit=True, context_key=key_out,
                                  thresholds=(((), cells),
                                              ((1,), _cells_below(partition, theta0)))))
    df = TableDecisionFunction("P", 1, entries=tuple(entries), default=False,
                               context_mode="restriction", partition=partition)
    return {"P": df}


def parity_overlay_rules() -> dict:
    """S(i, j) flips the reference edge bit exactly when xi_i, xi_j sit in
    the same half of [0, 1); this makes |S restricted to any distinct triple|
    have opposite parity to the reference graph's pair count there."""
    edge_local = Structure(OVERLAY_SIG, 2, {"E": [(1, 2), (2, 1)]})
    non_edge_local = Structure(OVERLAY_SIG, 2)
    key_edge = context_key(edge_local, (1, 2))
    key_non = context_key(non_edge_local, (1, 2))
    entries = (
        TableEntry(bit=True, context_key=key_edge,
                   thresholds=(((1,), frozenset({0})), ((2,), frozenset({1})))),
        TableEntry(bit=True, context_key=key_edge,
                   thresholds=(((1,), frozenset({1})), ((2,), frozenset({0})))),
        TableEntry(bit=True, context_key=key_non,
                   thresholds=(((1,), frozenset({0})), ((2,), frozenset({0})))),
        TableEntry(bit=True, context_key=key_non,
                   thresholds=(((1,), frozenset({1})), ((2,), frozenset({1})))),
    )
    df = TableDecisionFunction("S", 2, entries=entries, default=False,
                               context_mode="restriction", partition=(0.5,))
    return {"S": df}


def weak_rep_rules() -> dict:
    """Segment-reading rule realizing the same-class-triple example's S.

    For distinct (i, j): compare j against a fixed anchor (2 when i = 1,
    else 1) inside the reference segment; emit the edge iff the per-i coin
    agrees with "j is in the anchor's block relative to i".  Relative to
    each i this puts exactly the anchor's block (or its complement) into
    S, so of two points in different blocks exactly one is S-linked to i.
    """
    def rule(ctx) -> bool:
        i, j = ctx.tuple
        if i == j:
            return False
        anchor = 2 if i == 1 else 1
        same = ctx.segment().has("R", (i, anchor, j))
        coin = ctx.xi((1,)) < 0.5
        return coin == same

    df = FunctionDecisionFunction("S", 2, rule, context_mode="segment")
    return {"S": df}


# --- bespoke samplers -----------------------------------------------------------

class TdcSampler:
    """Unary mixture: with probability 1/3 the evens; otherwise an
    independent fair coin on each odd number.  Every element's marginal
    inclusion probability is 1/3."""

    def __init__(self):
        self.signature = UNARY_SIGNATURE

    def sample(self, src: HierarchicalRandomSource, n: int) -> Structure:
        if src.xi(()) < 1.0 / 3.0:
            chosen = [(i,) for i in range(2, n + 1, 2)]
        else:
            chosen = [(i,) for i in range(1, n + 1, 2) if src.xi((i,)) < 0.5]
        return Structure(UNARY_SIGNATURE, n, {"P": chosen})


class LoopViolatorSampler:
    """Frame-wise graph sampler with a loop forced at vertex 1.

    Deliberately breaks exchangeability (vertex 1 is distinguishable);
    used to exercise the failing side of the exchangeability test.  Each
    distinct base sample is looped once; the map of copies is cleared at
    1,024 entries, or when its base samples hold 2^14 edges (about 3 MB).
    """

    _MAX_LOOPED, _MAX_LOOPED_EDGES = 1 << 10, 1 << 14

    def __init__(self):
        self._base = FramewiseSampler(builtin_class("graphs"))
        self.signature = self._base.signature
        self._looped: dict[Structure, Structure] = {}  # base sample -> its looped copy
        self._edges = 0  # the edges of the base samples in `_looped`

    def sample(self, src: HierarchicalRandomSource, n: int) -> Structure:
        graph = self._base.sample(src, n)
        looped = self._looped.get(graph) if n else graph
        if looped is None:
            edges = set(graph.tuples("E"))
            self._edges += len(edges)
            if len(self._looped) >= self._MAX_LOOPED or self._edges > self._MAX_LOOPED_EDGES:
                self._looped.clear()
                self._edges = len(edges)
            edges.add((1, 1))
            looped = self._looped[graph] = Structure._trusted(self.signature, n, {"E": edges})
        return looped


# --- the named examples ---------------------------------------------------------

# The fixed references by the names the CLI's --ref accepts; each example
# with a fixed reference adds its own name below.
_REFERENCE_ORACLES = {"evens": evens_oracle, "same-class-triple": same_class_triple_oracle,
                      "odd-target": odd_target_oracle}

# Each named example: its reference (the name of a fixed one, or a builder
# that draws it from the sampling source) and its sampler over that reference.
# Decision functions hold no state, so each rule table is built once, here.
_EXAMPLES = {
    "weak-rep": ("same-class-triple", functools.partial(MaxSegSampler, weak_rep_rules())),
    "tdc-evens": ("odd-target", lambda ref: TdcSampler()),
    "parity-overlay": (parity_overlay_oracle,
                       functools.partial(MExchangeableSampler, parity_overlay_rules())),
    "strong-rep": ("evens", functools.partial(MExchangeableSampler, two_coin_rules())),
}
PAPER_EXAMPLE_NAMES = tuple(_EXAMPLES)
_REFERENCE_ORACLES.update((name, _REFERENCE_ORACLES[ref]) for name, (ref, _) in _EXAMPLES.items()
                          if isinstance(ref, str))


def _example(name: str, src: HierarchicalRandomSource | None = None):
    """The named example's reference and its sampler over it; `src` is needed
    only by a reference drawn from the sampling source."""
    try:
        reference, sampler = _EXAMPLES[name]
    except KeyError:
        raise KeyError(f"unknown example {name!r}; choose from {PAPER_EXAMPLE_NAMES}") from None
    oracle = _REFERENCE_ORACLES[reference]() if isinstance(reference, str) else reference(src)
    return oracle, sampler(oracle)


def paper_example(name: str, n: int, src: HierarchicalRandomSource
                  ) -> tuple[LazyStructure, Structure]:
    """Build a named reference oracle and draw one tied sample of size n."""
    oracle, sampler = _example(name, src)
    return oracle, sampler.sample(src, n)


class _ExampleSampler:
    """Sampler view of a named example, its reference built per source."""

    def __init__(self, name: str):
        self.name = name
        # references are lazy, so building one for seed 0 draws nothing
        self.signature = _example(name, HierarchicalRandomSource(0))[1].signature

    def sample(self, src: HierarchicalRandomSource, n: int) -> Structure:
        return paper_example(self.name, n, src)[1]


# --- claim verification ---------------------------------------------------------

def _example_tally(name: str, n: int, n_samples: int, meta_seed: int):
    """The example's fixed reference and how often each sample of size n
    comes up over `n_samples` seeds of the meta seed's stream."""
    oracle, sampler = _example(name)
    return oracle, _tally(sampler, tuple(range(1, n + 1)), n_samples, SeedStream(meta_seed), 0)


def verify_weak_rep(n_samples: int = 10000, n: int = 3, meta_seed: int = 0) -> dict:
    """Exactly one of (1,2), (1,3) is sampled, in every sample."""
    oracle, tally = _example_tally("weak-rep", n, n_samples, meta_seed)
    links = [(sample.has("S", (1, 2)), sample.has("S", (1, 3)), count)
             for sample, count in tally.items()]
    both = sum(count for a, b, count in links if a and b)
    neither = sum(count for a, b, count in links if not a and not b)
    premise = not oracle.initial_segment(3).has("R", (1, 2, 3))
    passed = premise and both == 0 and neither == 0
    return {
        "name": "weak-rep",
        "claim": "exactly one of S(1,2), S(1,3) holds in every sample "
                 "(2 and 3 lie in different blocks relative to 1)",
        "passed": passed,
        "details": {"samples": n_samples, "both": both, "neither": neither,
                    "reference_triple_absent": premise},
    }


def verify_tdc_evens(n_samples: int = 6000, n: int = 6, meta_seed: int = 0) -> dict:
    """Every element's marginal inclusion frequency is 1/3 (within 4 sigma)."""
    _, tally = _example_tally("tdc-evens", n, n_samples, meta_seed)
    counts = {i: sum(count for sample, count in tally.items() if sample.has("P", (i,)))
              for i in range(1, n + 1)}
    target = 1.0 / 3.0
    sigma = (target * (1 - target) / n_samples) ** 0.5
    tolerance = 4 * sigma
    freqs = {i: counts[i] / n_samples for i in counts}
    passed = all(abs(freq - target) <= tolerance for freq in freqs.values())
    return {
        "name": "tdc-evens",
        "claim": f"marginal inclusion frequency 1/3 per element (tolerance {tolerance:.4f})",
        "passed": passed,
        "details": {"samples": n_samples, "frequencies": freqs,
                    "tolerance": tolerance},
    }


def verify_parity_overlay(n_samples: int = 1000, n: int = 6, meta_seed: int = 0) -> dict:
    """|S restricted to a distinct triple| is even iff the triple is in R."""
    # not through _tally: each seed draws its own reference, checked with its sample
    seeds = SeedStream(meta_seed)
    violations = 0
    for k in range(n_samples):
        src = HierarchicalRandomSource(seeds[k])
        oracle, sample = paper_example("parity-overlay", n, src)
        reference = oracle.initial_segment(n)
        for x, y, z in itertools.combinations(range(1, n + 1), 3):
            count = sum(1 for pair in ((x, y), (x, z), (y, z))
                        if sample.has("S", pair))
            if (count % 2 == 0) != reference.has("R", (x, y, z)):
                violations += 1
    return {
        "name": "parity-overlay",
        "claim": "pair count of S inside each distinct triple is even iff "
                 "the triple is in the reference's R",
        "passed": violations == 0,
        "details": {"samples": n_samples, "size": n, "violations": violations},
    }


def verify_strong_rep(n_samples: int = 10000, meta_seed: int = 0) -> dict:
    """Marginal inclusion 0.7 on reference-P elements, 0.3 off (within 4 sigma)."""
    _, tally = _example_tally("strong-rep", 2, n_samples, meta_seed)
    count_even = sum(count for sample, count in tally.items() if sample.has("P", (2,)))
    count_odd = sum(count for sample, count in tally.items() if sample.has("P", (1,)))
    sigma = (0.7 * 0.3 / n_samples) ** 0.5
    tolerance = 4 * sigma
    freq_even = count_even / n_samples
    freq_odd = count_odd / n_samples
    passed = abs(freq_even - 0.7) <= tolerance and abs(freq_odd - 0.3) <= tolerance
    return {
        "name": "strong-rep",
        "claim": f"marginal inclusion 0.7 on P and 0.3 off P (tolerance {tolerance:.4f})",
        "passed": passed,
        "details": {"samples": n_samples, "frequency_on_P": freq_even,
                    "frequency_off_P": freq_odd, "tolerance": tolerance},
    }


def verify_all(meta_seed: int = 0, fast: bool = False) -> list[dict]:
    """Run every catalog claim; `fast` shrinks sample counts for smoke runs."""
    verifiers = ((verify_weak_rep, 500), (verify_tdc_evens, 1500),
                 (verify_parity_overlay, 100), (verify_strong_rep, 2000))
    return [verify(n_samples=fast_samples, meta_seed=meta_seed) if fast
            else verify(meta_seed=meta_seed) for verify, fast_samples in verifiers]

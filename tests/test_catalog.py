"""Named reference structures, example samplers, and their verification suite."""

import itertools
from collections import Counter

import pytest

from relex import HierarchicalRandomSource, SeedStream
from relex.amalgamation import builtin_class
from relex.catalog import (_REFERENCE_ORACLES, OVERLAY_SIG, PAPER_EXAMPLE_NAMES, TRIPLE_SIG,
                           LoopViolatorSampler,
                           TdcSampler, _ExampleSampler,
                           evens_oracle, odd_target_oracle, paper_example,
                           parity_overlay_oracle, same_class_triple_oracle,
                           verify_all, verify_parity_overlay, verify_strong_rep,
                           verify_tdc_evens, verify_weak_rep)
from relex.samplers import FramewiseSampler, sample_framewise
from relex.stattests import _tally
from relex.structures import GRAPH_SIGNATURE, UNARY_SIGNATURE, Structure, restrict


def test_example_names_are_stable():
    assert PAPER_EXAMPLE_NAMES == ("weak-rep", "tdc-evens", "parity-overlay",
                                   "strong-rep")


# --- reference oracles --------------------------------------------------------------

def test_evens_oracle_marks_even_numbers():
    seg = evens_oracle().initial_segment(7)
    assert [i for i in range(1, 8) if seg.has("P", (i,))] == [2, 4, 6]


def test_odd_target_oracle_edges_point_at_odds():
    seg = odd_target_oracle().initial_segment(5)
    for i, j in itertools.product(range(1, 6), repeat=2):
        assert seg.has("E", (i, j)) == (j % 2 == 1 and i != j)


def test_same_class_triple_oracle_geometry():
    seg = same_class_triple_oracle().initial_segment(6)
    # R(i, j, k) says j and k sit in the same block relative to i,
    # where the blocks relative to i are {i}, evens-minus-i, odds-minus-i
    assert seg.has("R", (1, 3, 5))        # two odds, relative to 1
    assert seg.has("R", (1, 2, 4))        # two evens
    assert not seg.has("R", (1, 2, 3))    # mixed parity
    assert not seg.has("R", (2, 2, 4))    # j = i: blocks {i} vs evens
    assert seg.has("R", (2, 4, 6))
    # restriction consistency comes free of the lazy wrapper, spot-check it
    small = same_class_triple_oracle().restrict_to((1, 2, 3))
    assert not small.has("R", (1, 2, 3))


def test_parity_overlay_oracle_parity_claim():
    for seed in (0, 1, 5, 17):
        src = HierarchicalRandomSource(seed)
        seg = parity_overlay_oracle(src).initial_segment(5)
        for triple in itertools.permutations(range(1, 6), 3):
            i, j, k = triple
            pairs = sum(seg.has("E", (a, b))
                        for a, b in ((i, j), (i, k), (j, k)))
            assert seg.has("R", triple) == (pairs % 2 == 1)


def _naive_block(i, x):
    return 0 if x == i else 1 if x % 2 == 0 else 2


def _naive_oracle_segment(name, m, src):
    """The named oracle's segment on [1, m] through the checked constructor,
    each tuple tested against the oracle's defining rule."""
    points = range(1, m + 1)
    if name == "evens":
        return Structure(UNARY_SIGNATURE, m, {"P": [(i,) for i in points if i % 2 == 0]})
    if name == "odd-target":
        return Structure(GRAPH_SIGNATURE, m, {"E": [(i, j) for i, j in itertools.product(
            points, repeat=2) if j % 2 == 1 and j != i]})
    if name == "same-class-triple":
        return Structure(TRIPLE_SIG, m, {"R": [(i, j, k) for i, j, k in itertools.product(
            points, repeat=3) if _naive_block(i, j) == _naive_block(i, k)]})
    edges = set(sample_framewise(builtin_class("graphs"), m, src).tuples("E"))  # symmetric
    odd = [(x, y, z) for x, y, z in itertools.permutations(points, 3)
           if sum(pair in edges for pair in ((x, y), (x, z), (y, z))) % 2]
    return Structure(OVERLAY_SIG, m, {"E": edges, "R": odd})


@pytest.mark.parametrize("name", ["evens", "odd-target", "same-class-triple", "parity-overlay"])
def test_oracle_builders_match_the_checked_constructor(name):
    for m in range(13):
        for seed in ((0, 1, 7) if name == "parity-overlay" else (None,)):
            src = None if seed is None else HierarchicalRandomSource(seed)
            oracle = (_REFERENCE_ORACLES[name]() if src is None
                      else parity_overlay_oracle(src))
            built = oracle.initial_segment(m)
            expected = _naive_oracle_segment(name, m, src)
            assert built == expected, (name, m, seed)
            assert (built.key(), repr(built)) == (expected.key(), repr(expected))


# --- example dispatch ---------------------------------------------------------------

def test_paper_example_returns_reference_and_sample():
    for name in PAPER_EXAMPLE_NAMES:
        oracle, sample = paper_example(name, 3, HierarchicalRandomSource(1))
        assert sample.n == 3
        assert oracle.initial_segment(3).n == 3
    with pytest.raises(KeyError):
        paper_example("no-such-example", 3, HierarchicalRandomSource(0))


def test_example_sampler_view_draws_the_examples_samples():
    for name in PAPER_EXAMPLE_NAMES:
        sampler = _ExampleSampler(name)
        for seed in (0, 3):
            sample = sampler.sample(HierarchicalRandomSource(seed), 4)
            assert sample == paper_example(name, 4, HierarchicalRandomSource(seed))[1]
            assert sample.signature == sampler.signature


def test_reference_names_cover_each_fixed_example_reference():
    assert sorted(_REFERENCE_ORACLES) == ["evens", "odd-target", "same-class-triple",
                                          "strong-rep", "tdc-evens", "weak-rep"]
    for name in ("strong-rep", "tdc-evens", "weak-rep"):
        oracle = paper_example(name, 3, HierarchicalRandomSource(0))[0]
        assert _REFERENCE_ORACLES[name]().initial_segment(5) == oracle.initial_segment(5)


def test_paper_example_is_deterministic_per_seed():
    a = paper_example("strong-rep", 4, HierarchicalRandomSource(11))[1]
    b = paper_example("strong-rep", 4, HierarchicalRandomSource(11))[1]
    assert a == b


# --- purpose-built samplers ------------------------------------------------------------

def test_tdc_sampler_mixes_two_components():
    sampler = TdcSampler()
    seeds = SeedStream(0)
    evens_only = neither = 0
    for i in range(300):
        s = sampler.sample(HierarchicalRandomSource(seeds[i]), 4)
        marks = {i for i in range(1, 5) if s.has("P", (i,))}
        if marks == {2, 4}:
            evens_only += 1
        elif not marks & {2, 4}:
            neither += 1
    # component one marks exactly the evens; component two marks odds at random
    assert evens_only > 0 and neither >= 0
    assert evens_only >= 60    # about one third of 300


def test_loop_violator_pins_vertex_one():
    sampler = LoopViolatorSampler()
    s = sampler.sample(HierarchicalRandomSource(5), 3)
    assert s.has("E", (1, 1))
    assert not s.has("E", (2, 2))


class _NaiveLoopViolator:
    """The loop violator built afresh for every sample and checked."""

    signature = GRAPH_SIGNATURE

    def __init__(self):
        self._base = FramewiseSampler(builtin_class("graphs"))

    def sample(self, src, n):
        graph = self._base.sample(src, n)
        return graph if n == 0 else Structure(GRAPH_SIGNATURE, n,
                                              {"E": [*graph.tuples("E"), (1, 1)]})


@pytest.mark.parametrize("n, seeds", [(0, range(200)), (1, range(200)), (3, range(200)),
                                      (12, range(200)), (60, range(40))])
def test_loop_violator_matches_a_naive_build(n, seeds):
    # n = 60 is past the frame-wise trie's bound: every base sample is a new object
    sampler, naive = LoopViolatorSampler(), _NaiveLoopViolator()
    expected = {seed: naive.sample(HierarchicalRandomSource(seed), n) for seed in seeds}
    for _ in range(2):                                # a first and a repeated visit
        for seed in seeds:
            got = sampler.sample(HierarchicalRandomSource(seed), n)
            assert got == expected[seed] and got.key() == expected[seed].key()
            assert repr(got) == repr(expected[seed])
            assert got.has("E", (1, 1)) == (n > 0)


def test_loop_violator_returns_one_object_per_distinct_sample():
    sampler = LoopViolatorSampler()
    objects = {}
    for seed in range(300):
        sample = sampler.sample(HierarchicalRandomSource(seed), 3)
        objects.setdefault(sample, set()).add(id(sample))
    assert len(objects) == 8 and all(len(ids) == 1 for ids in objects.values())


def test_loop_violator_map_stays_bounded():
    def held(sampler):
        edges = sum(len(base.tuples("E")) for base in sampler._looped)
        assert edges == sampler._edges
        return len(sampler._looped), edges

    by_entries = LoopViolatorSampler()
    by_entries._MAX_LOOPED_EDGES = 1 << 30            # the entry bound alone
    sizes = []
    for seed in range(1100):                          # more distinct samples than entries
        by_entries.sample(HierarchicalRandomSource(seed), 12)
        sizes.append(held(by_entries)[0])
    assert max(sizes) == 1024 and sizes[-1] == 1100 - 1024

    sampler = LoopViolatorSampler()
    for n, count in ((6, 1100), (12, 300), (60, 12)):
        for seed in range(count):
            sampler.sample(HierarchicalRandomSource(seed), n)
            entries, edges = held(sampler)
            assert entries <= 1024 and edges <= 1 << 14
    assert entries <= 9                               # about 1,770 edges each at n = 60


def test_loop_violator_tally_equals_the_sample_by_sample_law():
    seeds, points = SeedStream(4), (1, 2, 3)
    tally = _tally(LoopViolatorSampler(), points, 300, seeds, 10)
    naive = Counter(restrict(_NaiveLoopViolator().sample(HierarchicalRandomSource(seeds[10 + i]),
                                                           3), points) for i in range(300))
    assert tally == naive and list(tally) == list(naive)


# --- verification suite -------------------------------------------------------------------

def test_verify_weak_rep_small():
    result = verify_weak_rep(n_samples=300, n=3, meta_seed=0)
    assert result["passed"]
    assert result["details"]["both"] == 0 and result["details"]["neither"] == 0
    assert result["details"]["reference_triple_absent"]


def test_verify_tdc_evens_small():
    assert verify_tdc_evens(n_samples=1200, n=4, meta_seed=0)["passed"]


def test_verify_parity_overlay_small():
    assert verify_parity_overlay(n_samples=60, n=5, meta_seed=0)["passed"]


def test_verify_strong_rep_small():
    result = verify_strong_rep(n_samples=2500, meta_seed=0)
    assert result["passed"]
    assert abs(result["details"]["frequency_on_P"] - 0.7) < 0.05
    assert abs(result["details"]["frequency_off_P"] - 0.3) < 0.05


def test_verify_all_fast():
    reports = verify_all(meta_seed=0, fast=True)
    assert len(reports) == 4
    assert {r["name"] for r in reports} == set(PAPER_EXAMPLE_NAMES)
    assert all(r["passed"] for r in reports)
    assert all(isinstance(r["claim"], str) and r["claim"] for r in reports)

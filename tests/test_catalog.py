"""Named reference structures, example samplers, and their verification suite."""

import itertools

import pytest

from relex import HierarchicalRandomSource, SeedStream
from relex.catalog import (_REFERENCE_ORACLES, PAPER_EXAMPLE_NAMES, LoopViolatorSampler,
                           TdcSampler, _ExampleSampler,
                           evens_oracle, odd_target_oracle, paper_example,
                           parity_overlay_oracle, same_class_triple_oracle,
                           verify_all, verify_parity_overlay, verify_strong_rep,
                           verify_tdc_evens, verify_weak_rep)


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

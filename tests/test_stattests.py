"""Chi-square harness: empirical laws, equality/exchangeability/dissociation tests."""

import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import relex
from helpers import CountingSampler, naive_law
from relex import stattests as st
from relex.amalgamation import builtin_class
from relex.catalog import (
    _REFERENCE_ORACLES,
    LoopViolatorSampler,
    complete_graph_rules,
    evens_oracle,
    mixed_two_coin_rules,
    parity_overlay_oracle,
    same_class_triple_oracle,
    tournament_rules,
    two_coin_rules,
    weak_rep_rules,
)
from relex.embeddings import embedding_exists, ensure_lazy, enumerate_embeddings
from relex.randomness import HierarchicalRandomSource, SeedStream
from relex.samplers import (AmalgamationFailure, ExchangeableSampler, FramewiseSampler,
                            MaxSegSampler, MExchangeableSampler)
from relex.structures import Signature, Structure, relabel, restrict

UNARY = Signature((("P", 1),))


def _graphs_sampler():
    return FramewiseSampler(builtin_class("graphs"))


class FirstElementBiased:
    """Marks element 1 with probability 0.95 and the rest with 0.05.

    Not relatively exchangeable over any reference that identifies 1 with
    another element: the marginal at position 1 is visibly different.
    """

    signature = UNARY

    def sample(self, src, n):
        chosen = [(i,) for i in range(1, n + 1)
                  if src.xi((i,)) < (0.95 if i == 1 else 0.05)]
        return Structure(UNARY, n, {"P": chosen})


def _law(counts, subset=(1,), n_samples=None):
    total = sum(counts.values()) if n_samples is None else n_samples
    law = st.EmpiricalLaw(subset, total)
    law.counts = dict(counts)
    return law


# --- TestReport -------------------------------------------------------------------

def test_report_verdict_and_json():
    report = st.TestReport(name="demo", statistic=1.5, dof=2, p_value=0.47,
                           alpha=0.05, passed=True,
                           details={"cells": frozenset({"a"})})
    assert report.verdict == "pass"
    blob = report.to_json()
    assert blob["name"] == "demo"
    assert blob["verdict"] == "pass"
    assert blob["p_value"] == 0.47
    json.dumps(blob)  # fully serializable, frozensets coerced

    failing = st.TestReport(name="demo", statistic=99.0, dof=2, p_value=1e-9,
                            alpha=0.05, passed=False)
    assert failing.verdict == "fail"
    assert failing.to_json()["verdict"] == "fail"


# --- EmpiricalLaw -----------------------------------------------------------------

def test_empirical_law_record_and_frequencies():
    marked = Structure(UNARY, 1, {"P": [(1,)]})
    unmarked = Structure(UNARY, 1)
    law = st.EmpiricalLaw((1,), 4)
    law.record(marked)
    law.record(marked)
    law.record(unmarked)
    law.record(marked)
    assert law.counts == {marked.key(): 3, unmarked.key(): 1}
    assert law.structures[marked.key()] == marked
    freqs = law.frequencies()
    assert freqs[marked.key()] == pytest.approx(0.75)
    assert sum(freqs.values()) == pytest.approx(1.0)


def test_empirical_law_seed_forms_agree():
    sampler = _graphs_sampler()
    by_int = st.empirical_law(sampler, (1, 2), 80, 11)
    by_stream = st.empirical_law(sampler, (1, 2), 80, SeedStream(11))
    by_sequence = st.empirical_law(sampler, (1, 2), 80,
                                   [SeedStream(11)[i] for i in range(90)])
    assert by_int.counts == by_stream.counts == by_sequence.counts


def test_empirical_law_takes_a_numpy_meta_seed():
    np = pytest.importorskip("numpy")
    sampler = _graphs_sampler()
    plain = st.empirical_law(sampler, (1, 2), 10, 3)
    for seed in (np.int64(3), np.uint8(3), np.array(3)):
        assert st.empirical_law(sampler, (1, 2), 10, seed).counts == plain.counts
    # an array of seeds is still a sequence, not a meta seed
    seeds = np.array([SeedStream(3)[i] for i in range(10)], dtype=np.uint64)
    assert st.empirical_law(sampler, (1, 2), 10, seeds).counts == plain.counts


def test_empirical_law_offset_slices_the_stream():
    sampler = _graphs_sampler()
    pooled = st.empirical_law(sampler, (1, 2), 80, 11).counts
    head = st.empirical_law(sampler, (1, 2), 40, 11).counts
    tail = st.empirical_law(sampler, (1, 2), 40, 11, offset=40).counts
    merged = dict(head)
    for key, count in tail.items():
        merged[key] = merged.get(key, 0) + count
    assert merged == pooled
    assert head != tail  # different seed batches actually differ


def test_empirical_law_subset_normalized_and_restricted():
    sampler = _graphs_sampler()
    law = st.empirical_law(sampler, (3, 1, 3), 30, 2)
    assert law.subset == (1, 3)
    assert law.counts == st.empirical_law(sampler, (1, 3), 30, 2).counts
    assert all(s.n == 2 for s in law.structures.values())


def test_empirical_law_validation():
    sampler = _graphs_sampler()
    with pytest.raises(ValueError):
        st.empirical_law(sampler, (1, 2), 0, 1)
    with pytest.raises(ValueError):
        st.empirical_law(sampler, (), 10, 1)


# --- one tally per distinct sample --------------------------------------------------

def _per_sample_tally(sampler, points, n_samples, seeds, offset):
    """Stand-in for `stattests._tally` that draws every sample on
    [1, max(points)], restricts it to `points`, and hands it back with count 1."""
    pairs = [(restrict(sampler.sample(HierarchicalRandomSource(seeds[offset + i]), points[-1]),
                       points), 1)
             for i in range(n_samples)]
    return SimpleNamespace(items=lambda: pairs)


def _law_record(law):
    return (list(law.counts.items()), list(law.structures.items()))


def _two_coin_sampler():
    return MExchangeableSampler(two_coin_rules(), evens_oracle())


# (label, sampler factory, subset); (2, 4) restricts two-coin samples on
# [1, 4] non-injectively: many samples share one restriction
TALLY_LAWS = [("framewise-graphs", _graphs_sampler, (1, 2, 3)),
              ("framewise-graphs-pair", _graphs_sampler, (1, 3)),
              ("loop-violator", LoopViolatorSampler, (1, 2, 3)),
              ("two-coin-2-4", _two_coin_sampler, (2, 4))]


@pytest.mark.parametrize("label, make, subset", TALLY_LAWS, ids=[t[0] for t in TALLY_LAWS])
def test_empirical_law_matches_a_per_sample_loop(label, make, subset):
    sampler, seeds = make(), SeedStream(17)
    law = st.empirical_law(sampler, subset, 300, seeds)
    reference = naive_law(sampler, subset, 300, seeds)
    assert _law_record(law) == _law_record(reference)
    if label == "two-coin-2-4":
        assert len(law.counts) < len({sampler.sample(HierarchicalRandomSource(seeds[i]), 4)
                                      for i in range(300)})


@pytest.mark.parametrize("label, make", [("framewise-graphs", _graphs_sampler),
                                         ("loop-violator", LoopViolatorSampler)])
def test_exchangeability_matches_a_per_sample_loop(monkeypatch, label, make):
    tallied = st.test_exchangeability(make(), n=3, n_samples=300, meta_seed=4)
    monkeypatch.setattr(st, "_tally", _per_sample_tally)
    per_sample = st.test_exchangeability(make(), n=3, n_samples=300, meta_seed=4)
    assert tallied.to_json() == per_sample.to_json()
    assert tallied.passed == (label == "framewise-graphs")


def test_dissociation_and_relative_exchangeability_match_a_per_sample_loop(monkeypatch):
    def run():
        return (st.test_dissociation(_two_coin_sampler(), (1, 2), (3, 4), 300,
                                     meta_seed=6).to_json(),
                st.test_dissociation(_two_coin_sampler(), (2, 6), (3, 5), 300,
                                     meta_seed=6).to_json(),
                st.test_relative_exchangeability(_two_coin_sampler(), evens_oracle(), n=2,
                                                 n_samples=100, meta_seed=6,
                                                 probe_cap=6).to_json())

    tallied = run()
    monkeypatch.setattr(st, "_tally", _per_sample_tally)
    assert tallied == run()


def test_law_pulls_back_each_distinct_restriction_once(monkeypatch):
    sampler, seeds = _two_coin_sampler(), SeedStream(17)
    swap = st.Injection({1: 2, 2: 1})
    expected = _law_record(st._law(sampler, (2, 4), 300, seeds, 0, along=swap))
    calls = []

    def counting_relabel(structure, phi):
        calls.append(structure)
        return relabel(structure, phi)

    monkeypatch.setattr(st, "relabel", counting_relabel)
    law = st._law(sampler, (2, 4), 300, seeds, 0, along=swap)
    assert _law_record(law) == expected
    assert len(calls) == len(set(calls)) == len(law.counts)
    distinct_samples = {sampler.sample(HierarchicalRandomSource(seeds[i]), 4)
                        for i in range(300)}
    assert len(calls) < len(distinct_samples)


class _CountingSeeds(SeedStream):
    """A seed stream that logs every index read through `__getitem__`."""

    def __init__(self, meta_seed):
        super().__init__(meta_seed)
        self.reads = []

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)


@pytest.mark.parametrize("label, make, points", [("framewise-graphs", _graphs_sampler, (1, 2, 3)),
                                                 ("two-coin", _two_coin_sampler, (2, 4))])
def test_tally_reads_each_seed_once_in_order(label, make, points):
    sampler, offset = make(), 37
    seeds = _CountingSeeds(5)
    tally = st._tally(sampler, points, 50, seeds, offset)
    assert seeds.reads == list(range(offset, offset + 50))
    listed = st._tally(sampler, points, 50, SeedStream(5).take(50, offset), 0)
    assert list(tally.items()) == list(listed.items())


# --- local draws: the rule samplers' laws drawn on the probed points alone -----------

LOCAL_SAMPLERS = {
    "two-coin": (_two_coin_sampler, evens_oracle),
    "mixed-two-coin": (lambda: MExchangeableSampler(mixed_two_coin_rules(), evens_oracle()),
                       evens_oracle),
    "weak-rep": (lambda: MaxSegSampler(weak_rep_rules(), same_class_triple_oracle()),
                 same_class_triple_oracle),
    "tournament": (lambda: ExchangeableSampler(tournament_rules()), evens_oracle),
}


def _entry_point_reports(sampler, oracle):
    """All four entry points, on subsets that are not initial segments."""
    seeds = SeedStream(8)
    return (_law_record(st.empirical_law(sampler, (2, 5), 120, seeds)),
            st.test_exchangeability(sampler, n=3, n_samples=60, meta_seed=8).to_json(),
            st.test_relative_exchangeability(sampler, oracle, n=2, n_samples=60,
                                             meta_seed=8, probe_cap=5).to_json(),
            st.test_dissociation(sampler, (2, 5), (3, 7), 120, meta_seed=8).to_json())


@pytest.mark.parametrize("name", sorted(LOCAL_SAMPLERS))
def test_entry_points_with_local_draws_match_the_naive_path(monkeypatch, name):
    make, oracle = LOCAL_SAMPLERS[name]
    local = _entry_point_reports(make(), oracle())
    foreign = _entry_point_reports(CountingSampler(make()), oracle())
    monkeypatch.setattr(st, "_tally", _per_sample_tally)
    assert local == foreign == _entry_point_reports(make(), oracle())


def test_laws_draw_every_point_set_through_one_plan():
    calls = {"sample": 0, "sample_on": 0}

    class Counting(MExchangeableSampler):
        def sample(self, src, n):
            calls["sample"] += 1
            return super().sample(src, n)

        def sample_on(self, src, points):
            calls["sample_on"] += 1
            return super().sample_on(src, points)

    sampler = Counting(two_coin_rules(), evens_oracle())
    for points in ((2, 4), (1, 2)):   # off an initial segment and on one
        law = st.empirical_law(sampler, points, 30, 1)
        assert _law_record(law) == _law_record(naive_law(_two_coin_sampler(), points, 30,
                                                         SeedStream(1)))
    # no sample is drawn seed by seed: each point set has one plan
    assert calls == {"sample": 0, "sample_on": 0}
    assert set(sampler._rules._plans) == {(2, 4), (1, 2)}


def test_laws_read_their_points_as_integers():
    sampler = _two_coin_sampler()
    for points, culprit in (([1.5, 3], "1.5"), (["2", 3], "'2'")):
        with pytest.raises(ValueError, match=f"element {culprit} is not an integer"):
            st.empirical_law(sampler, points, 10, 0)
        with pytest.raises(ValueError, match=f"element {culprit} is not an integer"):
            st.test_dissociation(sampler, points, (5,), 10)
    with pytest.raises(ValueError, match="positive"):
        st.empirical_law(sampler, (0, 2), 10, 0)


def test_framewise_failure_outside_the_probed_points_still_raises():
    # equivalence lacks 3-DAP; with n = 1 every probed set is one point, and a
    # sample on [1, 3] fails at {1, 2, 3}, which no probe reads
    sampler = FramewiseSampler(builtin_class("equivalence"))
    with pytest.raises(AmalgamationFailure) as failure:
        st.test_relative_exchangeability(sampler, evens_oracle(), n=1, n_samples=50,
                                         window=3, meta_seed=0)
    assert len(failure.value.subset) == 3


def test_record_with_a_count_equals_repeated_records():
    marked = Structure(UNARY, 1, {"P": [(1,)]})
    once, repeated = st.EmpiricalLaw((1,), 5), st.EmpiricalLaw((1,), 5)
    once.record(marked, count=5)
    for _ in range(5):
        repeated.record(marked)
    assert _law_record(once) == _law_record(repeated)


# --- chi-square tail --------------------------------------------------------------

def test_chi2_sf_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(20261018)
    grid = [(0.0, 1), (1e-9, 1), (0.5, 1), (3.84, 1), (6.63, 1), (30.0, 1), (5.99, 2),
            (100.0, 3), (400.0, 400), (600.0, 400), (250.0, 400)]
    for _ in range(2000):
        dof = rng.randint(1, 400)
        grid.append((rng.uniform(0.0, 3.0 * dof + 40.0), dof))
    for x, dof in grid:
        ours, ref = st.chi2.sf(x, dof), float(scipy_stats.chi2.sf(x, dof))
        assert abs(ours - ref) <= 1e-10, (x, dof)
        if ref < 1e-3:
            assert abs(ours - ref) <= 1e-10 * ref, (x, dof)


def test_chi2_sf_edge_cases():
    assert st.chi2.sf(0.0, 3) == 1.0
    assert st.chi2.sf(-2.5, 1) == 1.0
    deep = st.chi2.sf(2000.0, 2)
    assert math.isfinite(deep) and 0.0 <= deep < 1e-300
    assert st.chi2.sf(2.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-14)
    tail = [st.chi2.sf(x, 7) for x in (0.5, 2.0, 7.0, 8.0, 9.0, 40.0, 200.0)]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    with pytest.raises(ValueError):
        st.chi2.sf(1.0, 0)


def test_import_relex_loads_neither_scipy_nor_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(relex.__file__).resolve().parent.parent),
                      env.get("PYTHONPATH")]))
    code = ("import sys, relex; "
            "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


# --- equal-law chi-square ---------------------------------------------------------

def test_equal_law_identical_laws_trivially_pass():
    law = _law({"a": 60, "b": 40})
    report = st.test_equal_law(law, law)
    assert report.passed
    assert report.statistic == pytest.approx(0.0)
    assert report.p_value == pytest.approx(1.0)
    assert report.name == "equal-law"


def test_equal_law_detects_bias():
    fair = _law({"a": 500, "b": 500})
    biased = _law({"a": 800, "b": 200})
    report = st.test_equal_law(fair, biased)
    assert not report.passed
    assert report.p_value < 1e-10
    assert report.dof == 1
    assert set(report.details["cells"]) == {"a", "b"}


def test_equal_law_merges_rare_cells():
    law_a = _law({"a": 90, "b": 4, "c": 6})
    law_b = _law({"a": 92, "b": 5, "d": 3})
    report = st.test_equal_law(law_a, law_b)
    cells = report.details["cells"]
    assert set(cells) == {"a", "__merged__"}
    assert cells["__merged__"] == [10, 8]  # b, c, d pooled
    assert report.dof == 1
    assert report.passed


def test_equal_law_degenerates_to_single_cell():
    # the merged remainder is still under the minimum, so it folds into "a"
    law_a = _law({"a": 99, "b": 1})
    law_b = _law({"a": 100})
    report = st.test_equal_law(law_a, law_b)
    assert report.dof == 0
    assert report.p_value == pytest.approx(1.0)
    assert report.passed


def test_equal_law_validation():
    law1 = _law({"a": 10}, subset=(1,))
    law2 = _law({"a": 10}, subset=(1, 2))
    with pytest.raises(ValueError):
        st.test_equal_law(law1, law2)
    with pytest.raises(ValueError):
        st.test_equal_law(law1, law1, alpha=0.0)
    with pytest.raises(ValueError):
        st.test_equal_law(law1, law1, alpha=1.0)
    empty_a = _law({}, n_samples=10)
    empty_b = _law({}, n_samples=10)
    with pytest.raises(ValueError):
        st.test_equal_law(empty_a, empty_b)



def test_equal_law_rejects_laws_over_different_signatures():
    graphs = st.empirical_law(_graphs_sampler(), (1, 2), 20, 3)
    marks = st.empirical_law(FramewiseSampler(builtin_class("subsets")), (1, 2), 20, 3, offset=20)
    for law_a, law_b, names in ((graphs, marks, "E/2) and Signature(P/1"),
                                (marks, graphs, "P/1) and Signature(E/2")):
        with pytest.raises(ValueError, match=re.escape(f"different signatures: Signature({names})")):
            st.test_equal_law(law_a, law_b)
    # hand-built laws hold no structures, so they meet any law of the same size
    assert st.test_equal_law(graphs, _law(graphs.counts, subset=(1, 2))).passed
    again = st.empirical_law(_graphs_sampler(), (1, 2), 20, 4)
    assert st.test_equal_law(graphs, again).name == "equal-law"

# --- exchangeability --------------------------------------------------------------

def test_exchangeability_framewise_graphs_pass():
    report = st.test_exchangeability(_graphs_sampler(), n=3, n_samples=300,
                                     meta_seed=5)
    assert report.passed
    assert report.p_value == pytest.approx(0.301197, abs=1e-4)
    assert report.details["probes"] == 5
    assert report.details["per_alpha"] == pytest.approx(0.01 / 5)
    assert len(report.details["results"]) == 5
    assert all(r["passed"] for r in report.details["results"])


def test_exchangeability_loop_violator_fails():
    report = st.test_exchangeability(LoopViolatorSampler(), n=3, n_samples=300,
                                     meta_seed=5)
    assert not report.passed
    assert report.p_value < 1e-100
    assert any(not r["passed"] for r in report.details["results"])
    assert report.details["correction"] == "holm"
    flags = [r["passed"] for r in report.details["results"]]
    assert _holm_flags([r["p_value"] for r in report.details["results"]]) == (False, flags)


def test_exchangeability_explicit_permutations():
    report = st.test_exchangeability(_graphs_sampler(), n=3, n_samples=200,
                                     meta_seed=7, permutations=[(2, 1, 3)])
    assert report.details["probes"] == 1
    assert report.details["per_alpha"] == pytest.approx(0.01)
    assert report.passed


def test_exchangeability_degenerate_cases():
    # with no permutation to probe, no sample is drawn
    for n, permutations in ((1, None), (3, [])):
        sampler = CountingSampler(_graphs_sampler())
        report = st.test_exchangeability(sampler, n=n, n_samples=20, meta_seed=0,
                                         permutations=permutations)
        assert report.passed and report.details["probes"] == 0
        assert sampler.calls == 0


def test_probe_families_draw_one_batch_per_law():
    sampler = CountingSampler(_graphs_sampler())
    st.test_exchangeability(sampler, n=3, n_samples=40, meta_seed=3,
                            permutations=[(2, 1, 3), (1, 3, 2)])
    assert sampler.calls == 3 * 40  # the law of X, then one batch per probe
    sampler = CountingSampler(MExchangeableSampler(two_coin_rules(), evens_oracle()))
    report = st.test_relative_exchangeability(sampler, evens_oracle(), n=2, n_samples=30,
                                              meta_seed=1, probe_cap=7)
    distinct_s = {tuple(r["s"]) for r in report.details["results"]}
    assert sampler.calls == 30 * (len(distinct_s) + 7)


def test_exchangeability_validation():
    sampler = _graphs_sampler()
    with pytest.raises(ValueError):
        st.test_exchangeability(sampler, n=0, n_samples=10)
    for n in (1, 3):
        with pytest.raises(ValueError, match="n_samples"):
            st.test_exchangeability(sampler, n=n, n_samples=0)
    with pytest.raises(ValueError):
        st.test_exchangeability(sampler, n=6, n_samples=10)  # too many perms
    with pytest.raises(ValueError):
        st.test_exchangeability(sampler, n=3, n_samples=10,
                                permutations=[(1, 2)])


def _holm_flags(p_values, alpha=0.01):
    probes = [{"p_value": p} for p in p_values]
    family = st._holm(probes, alpha)
    return family, [r["passed"] for r in probes]


def test_holm_rejects_a_second_probe_that_bonferroni_keeps():
    # Bonferroni keeps 0.006 (>= 0.01 / 2); Holm's second step tests it at 0.01
    p_values = [0.006, 0.001]
    assert [p >= 0.01 / 2 for p in p_values] == [True, False]
    assert _holm_flags(p_values) == (False, [False, False])


def test_holm_steps_down_until_the_first_kept_probe():
    # thresholds 0.01/4, 0.01/3, 0.01/2, 0.01 in ascending order of p
    assert _holm_flags([0.02, 0.002, 0.006, 0.003]) == (
        False, [True, False, True, False])
    assert _holm_flags([0.5, 0.005]) == (True, [True, True])   # p = alpha / m is kept
    assert _holm_flags([0.001, 0.001, 0.001]) == (False, [False, False, False])


# --- relative exchangeability -----------------------------------------------------

def test_relative_exchangeability_two_coin_over_evens_passes():
    sampler = MExchangeableSampler(two_coin_rules(), evens_oracle())
    report = st.test_relative_exchangeability(sampler, evens_oracle(), n=2,
                                              n_samples=250, meta_seed=1)
    assert report.passed
    assert report.name == "relative-exchangeability"
    assert report.details["probes"] == 16
    assert report.details["skipped_pairs"] == 26
    assert report.details["window"] == 4
    assert report.details["correction"] == "holm"
    first = report.details["results"][0]
    assert set(first) == {"s", "t", "phi", "p_value", "statistic", "dof", "passed"}


@pytest.mark.parametrize("reference", ["evens", "same-class-triple", "odd-target",
                                       "parity-overlay"])
@pytest.mark.parametrize("n", [2, 3])
def test_relative_exchangeability_probes_match_every_pair(reference, n):
    # brute force over every same-size pair in the window: a pair without an
    # embedding is skipped, the others' embeddings form the probe list
    oracle = (parity_overlay_oracle(HierarchicalRandomSource(5)) if reference == "parity-overlay"
              else _REFERENCE_ORACLES[reference]())
    lazy = ensure_lazy(oracle)
    subsets = [c for size in range(1, n + 1)
               for c in itertools.combinations(range(1, 2 * n + 1), size)]
    skipped, probes = 0, []
    for s_set, t_set in itertools.product(subsets, repeat=2):
        if len(s_set) == len(t_set) and s_set != t_set:
            source, target = lazy.restrict_to(s_set), lazy.restrict_to(t_set)
            skipped += not embedding_exists(source, target)
            probes += [{"s": list(s_set), "t": list(t_set), "phi": phi.items()}
                       for phi in enumerate_embeddings(source, target)]
    sampler = FramewiseSampler(builtin_class("trivial"))
    report = st.test_relative_exchangeability(sampler, oracle, n=n, n_samples=2)
    assert report.details["skipped_pairs"] == skipped
    assert [{key: r[key] for key in ("s", "t", "phi")}
            for r in report.details.get("results", [])] == probes[:60]


def test_relative_exchangeability_biased_sampler_fails():
    report = st.test_relative_exchangeability(FirstElementBiased(), evens_oracle(),
                                              n=1, n_samples=200, window=3,
                                              meta_seed=2)
    assert not report.passed
    assert report.p_value < 1e-50
    # {1} and {3} are both unmarked in the reference, so both directions probe
    assert report.details["probes"] == 2
    assert report.details["skipped_pairs"] == 4


def test_relative_exchangeability_without_embeddings_is_degenerate():
    report = st.test_relative_exchangeability(FirstElementBiased(), evens_oracle(),
                                              n=1, n_samples=50, window=2,
                                              meta_seed=2)
    assert report.passed
    assert report.details["probes"] == 0
    assert report.details["skipped_pairs"] == 2
    assert "note" in report.details


def test_relative_exchangeability_probe_cap_and_validation():
    sampler = MExchangeableSampler(two_coin_rules(), evens_oracle())
    report = st.test_relative_exchangeability(sampler, evens_oracle(), n=2,
                                              n_samples=60, meta_seed=1,
                                              probe_cap=5)
    assert report.details["probes"] == 5
    with pytest.raises(ValueError):
        st.test_relative_exchangeability(sampler, evens_oracle(), n=0,
                                         n_samples=10)
    with pytest.raises(ValueError):
        st.test_relative_exchangeability(sampler, evens_oracle(), n=6,
                                         n_samples=10)
    for window in (0, 1, 2):   # no room for probe pairs: an error, not a pass
        with pytest.raises(ValueError, match=f"window {window} must exceed n = 2"):
            st.test_relative_exchangeability(sampler, evens_oracle(), n=2,
                                             n_samples=10, window=window)


# --- dissociation -----------------------------------------------------------------

def test_dissociation_framewise_graphs_pass():
    report = st.test_dissociation(_graphs_sampler(), (1, 2), (3, 4), 1500,
                                  meta_seed=3)
    assert report.passed
    assert report.p_value == pytest.approx(0.099061, abs=1e-4)
    assert report.details["s"] == [1, 2]
    assert report.details["t"] == [3, 4]


def test_dissociation_global_mixture_fails():
    sampler = MExchangeableSampler(mixed_two_coin_rules(), evens_oracle())
    report = st.test_dissociation(sampler, (1,), (2,), 1500, meta_seed=3)
    assert not report.passed
    assert report.p_value < 1e-50
    assert report.dof == 1


class RareFlagSampler:
    """P marks points by a coin; Q flags point 2 with probability 0.05%.

    With `shared`, every point copies one global coin, so P(1) and P(2)
    are fully dependent; otherwise each point has its own coin.  The flag
    reads point 2's own uniform, so it never ties point 2 to point 1.
    """

    signature = Signature((("P", 1), ("Q", 1)))

    def __init__(self, shared: bool):
        self.shared = shared

    def sample(self, src, n):
        coin = src.xi(()) < 0.5
        marked = [(i,) for i in range(1, n + 1)
                  if (coin if self.shared else src.xi((i,)) < 0.5)]
        flagged = [(2,)] if n >= 2 and src.xi((2,)) < 0.0005 else []
        return Structure(self.signature, n, {"P": marked, "Q": flagged})


def test_dissociation_rare_column_does_not_collapse_rows():
    # a rare column once merged every row into one group: dof 0, p = 1, pass
    report = st.test_dissociation(RareFlagSampler(shared=True), (1,), (2,),
                                  20000, meta_seed=3)
    assert not report.passed
    assert report.dof >= 1 and report.details["rows"] == 2


def test_dissociation_rare_column_independent_sampler_passes():
    report = st.test_dissociation(RareFlagSampler(shared=False), (1,), (2,),
                                  20000, meta_seed=3)
    assert report.passed
    assert report.dof >= 1


def test_dissociation_constant_sampler_is_degenerate():
    sampler = ExchangeableSampler(complete_graph_rules())
    report = st.test_dissociation(sampler, (1,), (2, 3), 800, meta_seed=0)
    assert report.passed
    assert report.dof == 0
    assert report.details["rows"] == 1 and report.details["cols"] == 1


def test_dissociation_validation():
    sampler = _graphs_sampler()
    with pytest.raises(ValueError):
        st.test_dissociation(sampler, (1, 2), (2, 3), 10)
    with pytest.raises(ValueError):
        st.test_dissociation(sampler, (), (1,), 10)
    with pytest.raises(ValueError):
        st.test_dissociation(sampler, (1,), (2,), 0)

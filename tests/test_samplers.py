"""Samplers: rule-driven, frame-wise, age-indexed sequential; projectivity
and the failure-witness contracts."""

import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relex
from helpers import CountingSampler, naive_sample_framewise
from relex import (AgeIndexedLaw, AmalgamationFailure, FiniteClass, FramewiseSampler,
                   FunctionDecisionFunction, HierarchicalRandomSource, LazyStructure,
                   MaxSegSampler,
                   MExchangeableSampler, SeedStream, SequentialSampler,
                   Signature, Structure, ZeroProbabilityConditioning, amalgams,
                   builtin_class, ensure_lazy, restrict, sample_exchangeable,
                   sample_framewise, sample_m_exchangeable,
                   sample_maxseg_exchangeable, sample_sequential,
                   ExchangeableSampler, age_indexed_from_sampler, context_key,
                   load_rules, natural_embedding, relabel)
from relex.amalgamation import BUILTIN_CLASS_NAMES, from_theory, make_builtin_class
from relex.catalog import (evens_oracle, mixed_two_coin_rules, odd_target_oracle,
                           parity_overlay_oracle, parity_overlay_rules,
                           random_graph_rules, same_class_triple_oracle,
                           tournament_rules, two_coin_rules, weak_rep_rules)
from relex.stattests import test_exchangeability as check_exchangeability
from relex.theory import load_theory, parse_theory

GRAPHS = builtin_class("graphs")
UNARY = Signature((("P", 1),))


def _sources(count, meta_seed=0):
    seeds = SeedStream(meta_seed)
    return [HierarchicalRandomSource(seeds[i]) for i in range(count)]


# --- rule-driven samplers ---------------------------------------------------------

def test_exchangeable_random_graph_shape_and_determinism():
    rules = random_graph_rules()
    for src in _sources(40):
        s = sample_exchangeable(rules, 4, src)
        assert GRAPHS.contains(s)
    a = sample_exchangeable(rules, 4, HierarchicalRandomSource(7))
    b = sample_exchangeable(rules, 4, HierarchicalRandomSource(7))
    assert a == b


def test_exchangeable_edge_frequency_is_half():
    rules = random_graph_rules()
    hits = sum(sample_exchangeable(rules, 2, src).has("E", (1, 2))
               for src in _sources(4000))
    # p = 1/2: 4 sigma ~ 4 * sqrt(0.25 / 4000) * 4000 = 126
    assert abs(hits - 2000) < 127


def test_tournament_rules_produce_tournaments():
    tournaments = builtin_class("tournaments")
    for src in _sources(40):
        assert tournaments.contains(sample_exchangeable(tournament_rules(), 4, src))


def test_context_mode_enforcement():
    restriction_rules = two_coin_rules()
    segment_rules = weak_rep_rules()
    src = HierarchicalRandomSource(0)
    with pytest.raises(ValueError, match="context mode"):
        sample_exchangeable(restriction_rules, 3, src)
    with pytest.raises(ValueError, match="context mode"):
        sample_m_exchangeable(segment_rules, same_class_triple_oracle(), 3, src)
    with pytest.raises(ValueError, match="context mode 'none'"):
        ExchangeableSampler(restriction_rules)
    # maxseg accepts all three modes
    sample_maxseg_exchangeable(segment_rules, same_class_triple_oracle(), 3, src)
    sample_maxseg_exchangeable(restriction_rules, evens_oracle(), 3, src)


def test_m_exchangeable_two_coin_marginals():
    rules = two_coin_rules(0.3, 0.7)
    oracle = evens_oracle()
    odd_hits = even_hits = 0
    count = 3000
    for src in _sources(count, meta_seed=4):
        s = sample_m_exchangeable(rules, oracle, 2, src)
        odd_hits += s.has("P", (1,))
        even_hits += s.has("P", (2,))
    # 4 sigma at p = 0.3 / 0.7: 4 * sqrt(0.21 / 3000) ~ 0.0335
    assert abs(odd_hits / count - 0.3) < 0.034
    assert abs(even_hits / count - 0.7) < 0.034


def test_maxseg_weak_rep_exactly_one_link():
    rules = weak_rep_rules()
    oracle = same_class_triple_oracle()
    for src in _sources(150, meta_seed=9):
        s = sample_maxseg_exchangeable(rules, oracle, 3, src)
        assert s.has("S", (1, 2)) != s.has("S", (1, 3))


def test_maxseg_weak_rep_builds_each_segment_once(monkeypatch):
    """n = 10 asks for about 90 segments but needs only the 10 distinct ones."""
    from relex.rules import DecisionContext

    built = []
    segment = DecisionContext.segment
    monkeypatch.setattr(DecisionContext, "segment",
                        lambda ctx: built.append(segment(ctx)) or built[-1])
    sample_maxseg_exchangeable(weak_rep_rules(), same_class_triple_oracle(), 10,
                               HierarchicalRandomSource(4))
    assert len(built) > 10
    assert len({id(view) for view in built}) <= 10   # `built` keeps every view alive


# --- frame-wise sampler --------------------------------------------------------------

def test_framewise_members_and_determinism():
    for name in ("graphs", "tournaments", "subsets"):
        klass = builtin_class(name)
        for src in _sources(30, meta_seed=1):
            assert klass.contains(sample_framewise(klass, 4, src))
    assert (sample_framewise(GRAPHS, 5, HierarchicalRandomSource(3))
            == sample_framewise(GRAPHS, 5, HierarchicalRandomSource(3)))
    assert sample_framewise(GRAPHS, 0, HierarchicalRandomSource(3)).n == 0


def test_framewise_projectivity():
    seeds = SeedStream(2)
    for i in range(25):
        src = HierarchicalRandomSource(seeds[i])
        big = sample_framewise(GRAPHS, 6, src)
        for m in (1, 3, 5):
            assert restrict(big, range(1, m + 1)) == sample_framewise(GRAPHS, m, src)


def test_framewise_failure_carries_a_real_witness():
    equivalence = builtin_class("equivalence")
    failures = 0
    for src in _sources(200, meta_seed=0):
        try:
            sample_framewise(equivalence, 3, src)
        except AmalgamationFailure as failure:
            failures += 1
            assert len(failure.subset) == 3
            assert len(failure.family) == 3
            assert all(equivalence.contains(member) for member in failure.family)
            everything, _ = amalgams(failure.family, equivalence)
            assert everything == []
    # two cross links landing in different blocks: probability 3/8 per triple
    assert 40 <= failures <= 110, failures


def test_framewise_failure_at_a_cached_step_names_its_own_family():
    # at most one loop: a pair with two loops has no amalgam, at a step up to
    # max arity, so every failure after the first is a cache hit
    def enumerate_members(n):
        cells = list(itertools.product(range(1, n + 1), repeat=2))
        for bits in itertools.product((0, 1), repeat=len(cells)):
            member = Structure(GRAPHS.signature, n,
                               {"E": [c for c, bit in zip(cells, bits) if bit]})
            if one_loop(member):
                yield member

    def one_loop(s):
        return sum(s.has("E", (i, i)) for i in s.universe()) <= 1

    klass = FiniteClass("one-loop", GRAPHS.signature, one_loop, enumerate_members,
                        cap=3, locality=2)
    loop = Structure(GRAPHS.signature, 1, {"E": [(1, 1)]})
    failures = 0
    for src in _sources(20, meta_seed=3):
        try:
            sample_framewise(klass, 3, src)
        except AmalgamationFailure as failure:
            failures += 1
            assert failure.family == [loop, loop]
            assert amalgams(failure.family, klass)[0] == []
    assert failures >= 3


def test_framewise_rep_weights_shift_the_class_choice():
    def edge_rate(weights):
        hits = 0
        for src in _sources(1500, meta_seed=6):
            hits += sample_framewise(GRAPHS, 2, src, rep_weights=weights).has("E", (1, 2))
        return hits / 1500

    lo, hi = sorted((edge_rate((9.0, 1.0)), edge_rate((1.0, 9.0))))
    assert lo < 0.15 and hi > 0.85          # weights flip which class dominates
    assert abs(lo + hi - 1.0) < 0.06        # and they mirror each other
    near_half = edge_rate((1.0, 1.0))
    assert abs(near_half - 0.5) < 0.06


def test_framewise_rep_weights_follow_the_class_types():
    # marked digraphs without loops: the pair step's classes depend on where
    # the P-point sits, and a weight must name the same type either way (with
    # classes ordered by their least labelled member this read p ~ 8e-310)
    klass = from_theory(parse_theory("rel P/1; rel E/2; forall x . !E(x,x);"))
    sampler = FramewiseSampler(klass, rep_weights=(1, 20, 1, 1))
    report = check_exchangeability(sampler, n=2, n_samples=2000, meta_seed=0)
    assert report.passed and report.p_value > 0.05


def test_framewise_rep_weights_ignored_when_count_differs():
    # three weights never match the two classes at pair steps: uniform behavior
    plain = sample_framewise(GRAPHS, 3, HierarchicalRandomSource(12))
    weighted = sample_framewise(GRAPHS, 3, HierarchicalRandomSource(12),
                                rep_weights=(1.0, 1.0, 1.0))
    assert plain == weighted
    # two weights match the two size-1 subsets, but the singleton step is
    # never weighted
    subsets = builtin_class("subsets")
    for seed in range(10):
        assert (sample_framewise(subsets, 6, HierarchicalRandomSource(seed),
                                 rep_weights=(1.0, 9.0))
                == sample_framewise(subsets, 6, HierarchicalRandomSource(seed)))


def test_framewise_rejects_bad_weights_and_sizes():
    with pytest.raises(ValueError):
        sample_framewise(GRAPHS, 2, HierarchicalRandomSource(0), rep_weights=())
    with pytest.raises(ValueError):
        sample_framewise(GRAPHS, 2, HierarchicalRandomSource(0), rep_weights=(1.0, -2.0))
    with pytest.raises(ValueError):
        sample_framewise(GRAPHS, -1, HierarchicalRandomSource(0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_framewise_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        sample_framewise(GRAPHS, 2, HierarchicalRandomSource(0), rep_weights=(bad, 1.0))


class _CountingSource(HierarchicalRandomSource):
    """Records the subset of every xi and ordering draw, per kind and, in
    `log`, call for call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = {"xi": [], "ordering": []}
        self.log = []

    def xi(self, subset=()):
        self.draws["xi"].append(tuple(sorted(subset)))
        self.log.append(("xi", self.draws["xi"][-1]))
        return super().xi(subset)

    def ordering(self, subset):
        self.draws["ordering"].append(tuple(sorted(subset)))
        self.log.append(("ordering", self.draws["ordering"][-1]))
        return super().ordering(subset)


def test_framewise_graphs_draw_only_on_pairs():
    # one size-1 member: singletons draw nothing; above the pairs
    # max(arity, locality) = 2 no subset is visited; pairs come in colex
    # order, by largest point
    src = _CountingSource(3)
    sample_framewise(GRAPHS, 5, src)
    pairs = sorted(itertools.combinations(range(1, 6), 2), key=lambda s: (s[-1], s))
    assert pairs[:4] == [(1, 2), (1, 3), (2, 3), (1, 4)]
    assert src.draws == {"xi": pairs, "ordering": pairs}


def test_framewise_forced_step_draws_nothing():
    # equivalence visits the triple (locality 3), but its amalgam is forced
    equivalence = builtin_class("equivalence")
    for seed in range(20):
        src = _CountingSource(seed)
        try:
            sample_framewise(equivalence, 3, src)
        except AmalgamationFailure:
            continue
        assert (1, 2, 3) not in src.draws["xi"] + src.draws["ordering"]
        assert len(src.draws["xi"]) == len(src.draws["ordering"]) == 3
        break
    else:
        pytest.fail("no seed in 0-19 samples equivalence at n = 3")


def test_framewise_draws_the_ordering_of_a_two_element_orbit():
    # a tournament pair has one class whose orbit holds both arcs
    src = _CountingSource(5)
    sample_framewise(builtin_class("tournaments"), 3, src)
    pairs = list(itertools.combinations(range(1, 4), 2))
    assert src.draws == {"xi": pairs, "ordering": pairs}


def test_framewise_never_queries_above_the_visited_sizes():
    # graphs visit subsets of at most max(arity, locality) = 2 elements
    src = _CountingSource(8)
    sample = sample_framewise(GRAPHS, 6, src)
    assert sample == sample_framewise(GRAPHS, 6, HierarchicalRandomSource(8))
    drawn = src.draws["xi"] + src.draws["ordering"]
    assert drawn and max(len(subset) for subset in drawn) == 2


def test_framewise_unknown_locality_visits_every_subset():
    # the same class without a declared locality: same sample, all subsets checked
    sizes = []

    def predicate(s):
        sizes.append(s.n)
        return GRAPHS.contains(s)

    bare = FiniteClass("graphs-bare", GRAPHS.signature, predicate, GRAPHS.enumerate)
    assert (sample_framewise(bare, 4, HierarchicalRandomSource(2))
            == sample_framewise(GRAPHS, 4, HierarchicalRandomSource(2)))
    assert {3, 4} <= set(sizes)


def _framewise_outcome(klass, n, seed):
    try:
        return sample_framewise(klass, n, HierarchicalRandomSource(seed))
    except AmalgamationFailure as failure:
        return failure.subset, failure.family


THEORY_PATHS = sorted((Path(__file__).resolve().parent.parent / "theories").glob("*.th"))
FRAMEWISE_CLASSES = ([(name, lambda name=name: builtin_class(name))
                      for name in BUILTIN_CLASS_NAMES]
                     + [(path.name, lambda path=path: from_theory(load_theory(str(path))))
                        for path in THEORY_PATHS])


@pytest.mark.parametrize("label, make", FRAMEWISE_CLASSES,
                         ids=[label for label, _ in FRAMEWISE_CLASSES])
def test_framewise_step_tables_agree_with_unknown_locality(label, make):
    # the bare class visits every subset: steps up to max arity read the
    # step table, steps above it rebuild their partial uncached
    klass = make()
    bare = FiniteClass(label, klass.signature, klass.contains, klass.enumerate,
                       cap=klass.cap)
    for seed in range(10):
        for n in range(6):
            assert _framewise_outcome(bare, n, seed) == _framewise_outcome(klass, n, seed)


def _logged_outcome(sample, klass, n, seed, rep_weights):
    src = _CountingSource(seed)
    try:
        outcome = sample(klass, n, src, rep_weights=rep_weights)
    except AmalgamationFailure as failure:
        outcome = (failure.subset, failure.family)
    except ValueError as error:  # a class with no members of size 1
        outcome = str(error)
    return outcome, src.log


naive_colex = functools.partial(naive_sample_framewise, order="colex")


@pytest.mark.parametrize("locality", ["declared", "unknown"])
@pytest.mark.parametrize("label, make", FRAMEWISE_CLASSES,
                         ids=[label for label, _ in FRAMEWISE_CLASSES])
def test_framewise_matches_the_sampler_without_a_step_plan(label, make, locality):
    # same structure or failure (subset and family), same draws in the same
    # order, with sizes visited upward and then downward over one class
    klass = make()
    if locality == "unknown":
        klass = FiniteClass(label, klass.signature, klass.contains, klass.enumerate,
                            cap=klass.cap)
    for rep_weights in (None, (1.0, 3.0)):
        for n in (*range(8), *range(7, -1, -1)):
            for seed in range(30):
                expected = _logged_outcome(naive_colex, klass, n, seed, rep_weights)
                assert _logged_outcome(sample_framewise, klass, n, seed,
                                       rep_weights) == expected, (n, seed, rep_weights)


@pytest.mark.parametrize("label, make", FRAMEWISE_CLASSES,
                         ids=[label for label, _ in FRAMEWISE_CLASSES])
def test_framewise_size_and_colex_orders_agree_on_every_success(label, make):
    # both orders visit each subset after its proper subsets, so they build
    # the same samples and fail on the same seeds, though a failure may name
    # another subset
    klass = make()
    for rep_weights in (None, (1.0, 3.0)):
        for n in range(8):
            for seed in range(30):
                by_size = _logged_outcome(naive_sample_framewise, klass, n, seed, rep_weights)[0]
                by_colex = _logged_outcome(naive_colex, klass, n, seed, rep_weights)[0]
                if isinstance(by_size, Structure) or isinstance(by_colex, Structure):
                    assert by_colex == by_size, (n, seed, rep_weights)
                else:
                    assert type(by_colex) is type(by_size), (n, seed, rep_weights)


def test_framewise_plans_keep_to_their_bound(monkeypatch):
    # graphs visit n singletons and C(n, 2) pairs: 10 steps on [1, 4], 15 on
    # [1, 5]; one list keeps the 10 for every size, in colex order
    monkeypatch.setattr(relex.samplers, "_MAX_PLANNED_STEPS", 10)
    klass = make_builtin_class("graphs")
    for n in (5, 4, 6, 3, 1):
        for seed in range(5):
            expected = _logged_outcome(naive_colex, klass, n, seed, None)
            assert _logged_outcome(sample_framewise, klass, n, seed, None) == expected
        assert klass._step_plans.ends == [0, 1, 3, 6, 10], n
    colex = [(1,), (2,), (1, 2), (3,), (1, 3), (2, 3), (4,), (1, 4), (2, 4), (3, 4)]
    assert [s for s, *_ in klass._step_plans] == colex
    # kept steps carry a memo; steps chained afresh past the bound carry none
    steps, last = relex.samplers._step_plan(klass, 3)
    steps = list(steps)
    assert [s for s, *_ in steps] == colex[:6] and last is steps[-1][0]
    steps, last = relex.samplers._step_plan(klass, 6)
    steps = list(steps)
    assert last is None and len(steps) == 21 and steps[:10] == klass._step_plans
    assert [s for s, *_ in steps[10:12]] == [(5,), (1, 5)]
    assert all(memo is None for *_, memo in steps[10:])
    assert all(isinstance(memo, dict) for *_, memo in klass._step_plans)


def _same_outcome(outcome, expected):
    assert outcome == expected
    if isinstance(expected[0], Structure):
        assert (outcome[0].key(), repr(outcome[0])) == (expected[0].key(), repr(expected[0]))


@pytest.mark.parametrize("bound", ["default", 5])
@pytest.mark.parametrize("label, make", FRAMEWISE_CLASSES,
                         ids=[label for label, _ in FRAMEWISE_CLASSES])
def test_framewise_trie_walks_match_the_sampler_without_a_step_plan(label, make, bound,
                                                                    monkeypatch):
    # a first visit grows the trie, a second walks it; at a bound of 5 nodes
    # most walks fall off the full trie partway through the sample
    if bound != "default":
        monkeypatch.setattr(relex.samplers, "_MAX_PLANNED_STEPS", bound)
    klass = make()
    for rep_weights in (None, (1.0, 3.0)):
        for n in range(8):
            for seed in range(12):
                expected = _logged_outcome(naive_colex, klass, n, seed, rep_weights)
                for visit in range(2):
                    _same_outcome(_logged_outcome(sample_framewise, klass, n, seed, rep_weights),
                                  expected)


def _trie_counts(trie):
    """The nodes below the kept steps that hold the trie's root, and the
    samples stored."""
    def below(parent):
        return sum(1 + below(child) for child in parent.children.values())
    return below(trie), len(trie.samples)


def _no_pairs_class():
    """Graphs on at most one point: every pair step fails at the empty partial."""
    return FiniteClass("no-pairs", GRAPHS.signature, lambda s: s.n <= 1 and GRAPHS.contains(s),
                       lambda n: GRAPHS.enumerate(n) if n <= 1 else (), locality=2)


def _path_kind(klass, n, before, outcome):
    """How one sample ran, from the class's trie before and after it:
    `before` is (nodes, samples), None on a class with no trie yet."""
    trie = klass._step_plans
    if before is None:
        return "first on the class"
    if n >= len(trie.ends):
        return "not kept"
    nodes, samples = before
    after = _trie_counts(trie)
    if after[0] > nodes:
        return "left mid-walk"
    if after[1] > samples:
        return "left at the last step"
    if isinstance(outcome, Structure) and any(sample is outcome
                                              for sample in trie.samples.values()):
        return "walked to the end"
    return "failed" if not isinstance(outcome, Structure) else "built past the bound"


@pytest.mark.parametrize("bound", ["default", 4])
@pytest.mark.parametrize("name", ["graphs", "tournaments", "digraphs", "equivalence"])
def test_framewise_one_loop_walks_and_builds_as_the_naive_sampler(name, bound, monkeypatch):
    # the same structure or failure as the naive sampler, with the same
    # draws in the same order, whichever way the sample ran through the
    # trie; sizes go down, so that a smaller sample walks a larger one's
    # path to its last step, and then up
    if bound != "default":
        monkeypatch.setattr(relex.samplers, "_MAX_PLANNED_STEPS", bound)
    klass, kinds = make_builtin_class(name), set()
    for rep_weights, sizes in ((None, range(5, 0, -1)), ((1.0, 3.0), range(1, 6))):
        for n in sizes:
            for seed in range(16):
                expected = _logged_outcome(naive_colex, klass, n, seed, rep_weights)
                trie = klass._step_plans
                before = None if trie is None else _trie_counts(trie)
                outcome = _logged_outcome(sample_framewise, klass, n, seed, rep_weights)
                _same_outcome(outcome, expected)
                kinds.add(_path_kind(klass, n, before, outcome[0]))
    # a trie at its bound grows no more: a path that leaves it is built past the bound
    assert ({"walked to the end", "left mid-walk", "left at the last step"} if bound == "default"
            else {"walked to the end", "not kept", "built past the bound"}) <= kinds, kinds


@pytest.mark.parametrize("name, n", [("parity3", 5), ("equivalence", 4), ("no-pairs", 3)])
def test_framewise_failures_raise_alike_on_every_visit(name, n):
    klass = _no_pairs_class() if name == "no-pairs" else make_builtin_class(name)
    failing = [seed for seed in range(40)
               if not isinstance(_framewise_outcome(klass, n, seed), Structure)]
    assert failing, name
    trie = klass._step_plans
    stored = trie.nodes
    assert sum(_trie_counts(trie)) == stored
    for seed in failing:
        expected = _logged_outcome(naive_colex, klass, n, seed, None)
        for visit in range(2):
            outcome = _logged_outcome(sample_framewise, klass, n, seed, None)
            assert outcome == expected and not isinstance(outcome[0], Structure)
    # the failing steps were not stored: the repeated visits added nothing
    assert trie.nodes == stored


def test_framewise_trie_keeps_to_its_bound():
    klass = make_builtin_class("graphs")
    for src in _sources(2000, meta_seed=9):
        sample_framewise(klass, 12, src)
    trie = klass._step_plans
    nodes, samples = _trie_counts(trie)
    assert nodes + samples == trie.nodes <= relex.samplers._MAX_PLANNED_STEPS
    assert samples >= 1


def test_framewise_one_bound_holds_per_class():
    # every size shares the class's one step list and one trie, so sampling
    # many sizes keeps within one bound (one trie per size held 14,383 nodes and samples)
    klass = make_builtin_class("graphs")
    for n in range(2, 19):
        for src in _sources(300, meta_seed=n):
            sample_framewise(klass, n, src)
    trie = klass._step_plans
    assert sum(_trie_counts(trie)) == trie.nodes <= relex.samplers._MAX_PLANNED_STEPS
    assert len(trie) == trie.ends[-1] <= relex.samplers._MAX_PLANNED_STEPS
    assert trie.ends[18] == 18 + 153


def test_framewise_sizes_of_singletons_alone_share_the_class_trie():
    # subsets visits singletons only (max(arity, locality) = 1): the steps on
    # [1, n] are the first n of one list, and every size walks one trie
    klass = make_builtin_class("subsets")
    for n in range(1, 60):
        sample_framewise(klass, n, HierarchicalRandomSource(n))
    trie = klass._step_plans
    assert [s for s, *_ in trie] == [(i,) for i in range(1, 60)]
    assert trie.ends == list(range(60))
    assert sum(_trie_counts(trie)) == trie.nodes <= relex.samplers._MAX_PLANNED_STEPS


@pytest.mark.parametrize("name", ["equivalence", "parity3"])
@pytest.mark.parametrize("n", [6, 8])
def test_framewise_failures_are_projective(name, n):
    # a failure names the first subset s in colex order with no amalgam: the
    # sample on [1, max(s) - 1] exists, and every size from max(s) on raises
    # with the same subset and family
    klass, failures = builtin_class(name), 0
    for seed in range(200):
        outcome = _framewise_outcome(klass, n, seed)
        if isinstance(outcome, Structure):
            continue
        failures += 1
        top = max(outcome[0])
        assert isinstance(_framewise_outcome(klass, top - 1, seed), Structure), seed
        for m in range(top, n + 1):
            assert _framewise_outcome(klass, m, seed) == outcome, (seed, m)
    assert failures, name


def test_framewise_equal_samples_at_a_kept_size_are_one_object():
    klass = make_builtin_class("tournaments")
    by_key = {}
    for src in _sources(300, meta_seed=4):
        sample = sample_framewise(klass, 3, src)
        assert by_key.setdefault(sample.key(), sample) is sample
    assert len(by_key) == 8  # each orientation of the three pairs


FRAMEWISE_BUILTINS = [name for name in BUILTIN_CLASS_NAMES if builtin_class(name).enumerate(1)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FRAMEWISE_BUILTINS), st.integers(0, 6), st.data(),
       st.integers(0, 2 ** 64 - 1))
def test_framewise_projective_over_random_seeds(name, n, data, seed):
    m = data.draw(st.integers(0, n), label="m")
    klass = builtin_class(name)
    big, small = _framewise_outcome(klass, n, seed), _framewise_outcome(klass, m, seed)
    if isinstance(big, Structure):
        assert restrict(big, range(1, m + 1)) == small
    elif max(big[0]) <= m:
        # the steps on [1, m] come first at n, in the same order
        assert small == big
    else:
        assert isinstance(small, Structure)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1))
def test_framewise_draws_on_a_fresh_class_as_on_a_warmed_one(n, seed, warm_seed):
    for name in FRAMEWISE_BUILTINS:
        fresh = _framewise_outcome(make_builtin_class(name), n, seed)
        warmed = make_builtin_class(name)
        _framewise_outcome(warmed, 6, warm_seed)
        assert _framewise_outcome(warmed, n, seed) == fresh, name


# --- reference plumbing -----------------------------------------------------------------

def test_ensure_lazy_wraps_finite_structures():
    finite = Structure(UNARY, 3, {"P": [(2,)]})
    lazy = ensure_lazy(finite)
    assert lazy.initial_segment(2) == restrict(finite, (1, 2))
    with pytest.raises(ValueError):
        lazy.initial_segment(4)
    assert ensure_lazy(evens_oracle()) is not None
    with pytest.raises(TypeError):
        ensure_lazy("not a structure")


def _counting_evens():
    calls = []

    def builder(m):
        calls.append(m)
        return Structure(UNARY, m, {"P": [(i,) for i in range(2, m + 1, 2)]})
    return LazyStructure(UNARY, builder), calls


@pytest.mark.parametrize("sample", [sample_m_exchangeable, sample_maxseg_exchangeable])
def test_rule_samplers_read_one_reference_view(sample):
    finite = Structure(UNARY, 40, {"P": [(i,) for i in range(2, 41, 2)]})
    for seed in range(3):
        lazy, calls = _counting_evens()
        drawn = sample(two_coin_rules(), lazy, 40, HierarchicalRandomSource(seed))
        assert calls == [40]
        assert drawn == sample(two_coin_rules(), finite, 40, HierarchicalRandomSource(seed))


def _keyed_arc_rules():
    """S(i, j) iff "the reference holds only the arc i -> j on {i, j}" differs
    from "xi_{i,j} < 1/2": a function rule that reads the context key."""
    arc = context_key(Structure(Signature((("E", 2),)), 2, {"E": [(1, 2)]}), (1, 2))
    rule = FunctionDecisionFunction(
        "S", 2, lambda ctx: (ctx.context_key() == arc) != (ctx.xi() < 0.5),
        context_mode="restriction")
    return {"S": rule}


# each builds a new sampler over a new reference oracle
MEMO_SAMPLERS = {
    "two-coin": lambda: MExchangeableSampler(two_coin_rules(), evens_oracle()),
    "mixed-two-coin": lambda: MExchangeableSampler(mixed_two_coin_rules(), evens_oracle()),
    "weak-rep": lambda: MaxSegSampler(weak_rep_rules(), same_class_triple_oracle()),
    "parity-overlay": lambda: MExchangeableSampler(
        parity_overlay_rules(), parity_overlay_oracle(HierarchicalRandomSource(5))),
    "keyed-function": lambda: MExchangeableSampler(_keyed_arc_rules(), odd_target_oracle()),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(MEMO_SAMPLERS)),
       st.lists(st.tuples(st.integers(0, 2 ** 64 - 1), st.integers(0, 6)),
                min_size=2, max_size=8))
def test_rule_samplers_draw_over_a_warm_memo_as_over_a_fresh_one(name, draws):
    # one sampler draws in the given order, so its reference's context-key
    # memos fill as it goes, and its oracle regrows whenever a size exceeds
    # every earlier one; each sample must equal a fresh sampler's
    warm = MEMO_SAMPLERS[name]()
    for seed, n in draws:
        fresh = MEMO_SAMPLERS[name]().sample(HierarchicalRandomSource(seed), n)
        assert warm.sample(HierarchicalRandomSource(seed), n) == fresh, (seed, n)


# --- age-indexed laws ----------------------------------------------------------------------

def _iid_law(thetas, cap):
    """Exact law of independent coins: P(i) with probability thetas[par(i)],
    tabulated against the evens reference (P = even numbers)."""
    law = AgeIndexedLaw(UNARY, cap)
    for m in range(1, cap + 1):
        member = Structure(UNARY, m, {"P": [(i,) for i in range(2, m + 1, 2)]})
        dist = {}
        for bits in itertools.product((0, 1), repeat=m):
            prob = 1.0
            for i, bit in enumerate(bits, start=1):
                theta = thetas[1 if i % 2 == 0 else 0]
                prob *= theta if bit else (1.0 - theta)
            outcome = Structure(UNARY, m,
                                {"P": [(i,) for i, bit in enumerate(bits, start=1) if bit]})
            dist[outcome] = prob
        law.add_table(member, dist)
    return law


def test_age_indexed_law_validation():
    law = AgeIndexedLaw(UNARY, 2)
    member = Structure(UNARY, 1)
    with pytest.raises(ValueError, match="sum"):
        law.add_table(member, {Structure(UNARY, 1): 0.4})
    with pytest.raises(ValueError, match="size or signature"):
        law.add_table(member, {Structure(UNARY, 2): 1.0})
    with pytest.raises(ValueError, match="no table"):
        law.table_for(member)
    law.add_table(member, {Structure(UNARY, 1): 0.25,
                           Structure(UNARY, 1, {"P": [(1,)]}): 0.75})
    table = law.table_for(member)
    assert [prob for _, prob in table] == [0.25, 0.75] or \
        sorted(prob for _, prob in table) == [0.25, 0.75]


def test_sequential_growth_is_projective_and_deterministic():
    law = _iid_law((0.3, 0.7), cap=5)
    oracle = evens_oracle()
    seeds = SeedStream(5)
    for i in range(25):
        src = HierarchicalRandomSource(seeds[i])
        big = sample_sequential(law, oracle, 5, src)
        for m in (1, 2, 4):
            assert restrict(big, range(1, m + 1)) == sample_sequential(law, oracle, m, src)


def test_sequential_growth_matches_the_exact_marginals():
    law = _iid_law((0.3, 0.7), cap=3)
    oracle = evens_oracle()
    count = 3000
    hits = [0, 0, 0]
    for src in _sources(count, meta_seed=8):
        s = sample_sequential(law, oracle, 3, src)
        for i in range(1, 4):
            hits[i - 1] += s.has("P", (i,))
    assert abs(hits[0] / count - 0.3) < 0.034
    assert abs(hits[1] / count - 0.7) < 0.034
    assert abs(hits[2] / count - 0.3) < 0.034


def test_sequential_point_mass_law_is_exact():
    law = AgeIndexedLaw(UNARY, 3)
    for m in range(1, 4):
        member = Structure(UNARY, m, {"P": [(i,) for i in range(2, m + 1, 2)]})
        outcome = Structure(UNARY, m, {"P": [(i,) for i in range(1, m + 1) if i % 2 == 1]})
        law.add_table(member, {outcome: 1.0})
    result = sample_sequential(law, evens_oracle(), 3, HierarchicalRandomSource(99))
    assert result.has("P", (1,)) and not result.has("P", (2,)) and result.has("P", (3,))


def test_sequential_raises_on_impossible_conditioning():
    law = AgeIndexedLaw(UNARY, 2)
    m1 = Structure(UNARY, 1)
    m2 = Structure(UNARY, 2, {"P": [(2,)]})
    law.add_table(m1, {Structure(UNARY, 1): 0.5,
                       Structure(UNARY, 1, {"P": [(1,)]}): 0.5})
    # the size-2 table only extends the unmarked step-1 outcome
    law.add_table(m2, {Structure(UNARY, 2): 1.0})
    oracle = evens_oracle()
    outcomes = set()
    for src in _sources(40, meta_seed=3):
        try:
            sample_sequential(law, oracle, 2, src)
            outcomes.add("ok")
        except ZeroProbabilityConditioning as exc:
            assert exc.step == 2
            outcomes.add("raised")
    assert outcomes == {"ok", "raised"}    # both step-1 draws occur across seeds


RULES_DIR = Path(__file__).resolve().parent.parent / "rules"
PROJECTIVE_SAMPLERS = {
    "random-graph": lambda: ExchangeableSampler(load_rules(RULES_DIR / "random_graph.json")),
    "tournament": lambda: ExchangeableSampler(load_rules(RULES_DIR / "tournament.json")),
    "two-coin": lambda: MExchangeableSampler(two_coin_rules(), evens_oracle()),
    "mixed-two-coin": lambda: MExchangeableSampler(mixed_two_coin_rules(), evens_oracle()),
    "weak-rep": lambda: MaxSegSampler(weak_rep_rules(), same_class_triple_oracle()),
    "sequential": lambda: SequentialSampler(_iid_law((0.3, 0.7), cap=6), evens_oracle()),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PROJECTIVE_SAMPLERS)), st.integers(0, 6), st.data(),
       st.integers(0, 2 ** 64 - 1))
def test_rule_and_sequential_samplers_projective_over_random_seeds(name, n, data, seed):
    m = data.draw(st.integers(0, n), label="m")
    sampler = PROJECTIVE_SAMPLERS[name]()
    big = sampler.sample(HierarchicalRandomSource(seed), n)
    small = sampler.sample(HierarchicalRandomSource(seed), m)
    assert restrict(big, range(1, m + 1)) == small


def _reference_reading_rules():
    """S(i, j) reads the reference's segment and the whole reference view it
    is handed: a function rule that no table can express."""
    def rule(ctx):
        i, j = ctx.tuple
        linked = ctx.segment().has("R", (i, j, 1)) != (ctx.xi() < 0.5)
        return linked != (ctx.reference.n % 2 == 0 and i < j)
    return {"S": FunctionDecisionFunction("S", 2, rule, context_mode="segment")}


# every rule kind: context-free tables (threshold, ordering), restriction
# tables (plain and mixed by xi_empty), segment function rules
LOCAL_SAMPLERS = {
    "random-graph": lambda: ExchangeableSampler(load_rules(RULES_DIR / "random_graph.json")),
    "tournament": lambda: ExchangeableSampler(load_rules(RULES_DIR / "tournament.json")),
    "two-coin": lambda: MExchangeableSampler(two_coin_rules(), evens_oracle()),
    "mixed-two-coin": lambda: MExchangeableSampler(mixed_two_coin_rules(), evens_oracle()),
    "weak-rep": lambda: MaxSegSampler(weak_rep_rules(), same_class_triple_oracle()),
    "reference-reading": lambda: MaxSegSampler(_reference_reading_rules(),
                                               same_class_triple_oracle()),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(LOCAL_SAMPLERS)), st.integers(0, 2 ** 64 - 1),
       st.sets(st.integers(1, 8), min_size=1))
def test_sample_on_is_the_restriction_of_a_sample(name, seed, points):
    sampler = LOCAL_SAMPLERS[name]()
    points = sorted(points)
    local = sampler.sample_on(HierarchicalRandomSource(seed), points)
    whole = sampler.sample(HierarchicalRandomSource(seed), points[-1])
    expected = restrict(whole, points)
    assert local == expected
    assert local.key() == expected.key() and repr(local) == repr(expected)


def test_sample_on_decides_only_the_tuples_over_its_points():
    decided = []

    def rule(ctx):
        decided.append(ctx.tuple)
        return ctx.xi() < 0.5

    sampler = ExchangeableSampler({"E": FunctionDecisionFunction("E", 2, rule)})
    local = sampler.sample_on(HierarchicalRandomSource(3), (7, 2, 5, 2))
    assert sorted(decided) == sorted(itertools.product((2, 5, 7), repeat=2))
    assert local.n == 3
    decided.clear()
    assert local == restrict(sampler.sample(HierarchicalRandomSource(3), 7), (2, 5, 7))
    assert len(decided) == 49
    assert sampler.sample_on(HierarchicalRandomSource(3), ()) == Structure(local.signature, 0)
    with pytest.raises(ValueError, match="positive"):
        sampler.sample_on(HierarchicalRandomSource(3), (0, 2))


def test_sample_on_reads_its_points_as_integers():
    sampler = LOCAL_SAMPLERS["two-coin"]()
    src = HierarchicalRandomSource(2)
    for points, culprit in (([1.9, 3.2], "1.9"), (["2", 3], "'2'"), ([2, 3.0], "3.0")):
        with pytest.raises(ValueError, match=f"element {culprit} is not an integer"):
            sampler.sample_on(src, points)
    assert sampler.sample_on(src, [3, 1]) == restrict(sampler.sample(src, 3), (1, 3))


def test_rule_samplers_reject_a_negative_size():
    src = HierarchicalRandomSource(0)
    for sampler in (LOCAL_SAMPLERS["tournament"](), LOCAL_SAMPLERS["two-coin"]()):
        with pytest.raises(ValueError, match="n must be >= 0"):
            sampler.sample(src, -1)


def test_rule_samplers_reject_a_table_keyed_over_another_signature():
    # two-coin keys name P/1; odd-target's reference is a graph E/2, so no
    # entry could ever match and every sample would be empty
    for make in (MExchangeableSampler, MaxSegSampler):
        with pytest.raises(ValueError, match=r"'P'.*Signature\(P/1\).*Signature\(E/2\)"):
            make(two_coin_rules(), odd_target_oracle())
    with pytest.raises(ValueError, match="context key"):
        sample_m_exchangeable(two_coin_rules(), odd_target_oracle(), 3,
                              HierarchicalRandomSource(0))
    # a finite reference is checked the same way; function rules carry no key
    with pytest.raises(ValueError, match="context key"):
        MExchangeableSampler(two_coin_rules(), Structure(Signature((("E", 2),)), 3))
    MExchangeableSampler(two_coin_rules(), Structure(UNARY, 3))
    MExchangeableSampler(_keyed_arc_rules(), odd_target_oracle())
    bad = {"P": relex.TableDecisionFunction(
        "P", 1, [relex.TableEntry(bit=True, context_key="not a key")],
        context_mode="restriction")}
    with pytest.raises(ValueError, match="not a context key"):
        MExchangeableSampler(bad, evens_oracle())


def test_age_indexed_from_sampler_estimates_an_invariant_law():
    class TwoCoin:
        signature = UNARY

        def __init__(self):
            self.rules = two_coin_rules(0.3, 0.7)
            self.oracle = evens_oracle()

        def sample(self, src, n):
            return sample_m_exchangeable(self.rules, self.oracle, n, src)

    subsets = builtin_class("subsets")
    law = age_indexed_from_sampler(TwoCoin(), evens_oracle(), subsets,
                                   cap=2, n_samples=1200, meta_seed=0)
    assert len(law.tables) == 6            # 2 members of size 1, 4 of size 2
    marked = Structure(UNARY, 1, {"P": [(1,)]})
    table = dict((s.key(), p) for s, p in law.table_for(marked))
    hit = Structure(UNARY, 1, {"P": [(1,)]}).key()
    assert abs(table.get(hit, 0.0) - 0.7) < 0.06
    # the sampler is genuinely invariant: discrepancies are sampling noise only
    assert law.max_discrepancy < 0.12, (law.max_discrepancy, law.worst_pair)


def _naive_age_tables(sampler, oracle, klass, cap, n_samples, meta_seed):
    """Each member's table, sample by sample: a sample on [1, max image of its
    greedy embedding rho], pulled back along rho; and whether some rho
    does not increase."""
    seeds, lazy = SeedStream(meta_seed), ensure_lazy(oracle)
    members = [m for size in range(1, cap + 1) for m in klass.enumerate(size)]
    tables, unordered = {}, False
    for j, member in enumerate(members):
        rho = natural_embedding(member, lazy, 32)
        images = rho.image_sequence()
        unordered |= list(images) != sorted(images)
        counts = {}
        for i in range(n_samples):
            sample = sampler.sample(HierarchicalRandomSource(seeds[j * n_samples + i]),
                                    max(images))
            key = relabel(sample, rho)[0].key()
            counts[key] = counts.get(key, 0) + 1
        tables[member.key()] = sorted((key, count / n_samples) for key, count in counts.items())
    return tables, unordered


def test_age_indexed_laws_from_local_draws_match_sample_then_pull_back():
    subsets = builtin_class("subsets")
    sampler = MExchangeableSampler(two_coin_rules(0.3, 0.7), evens_oracle())
    expected, unordered = _naive_age_tables(sampler, evens_oracle(), subsets, 3, 150, 2)
    assert unordered  # e.g. P on 1 of 2 points embeds as 1 -> 2, 2 -> 1
    laws = [age_indexed_from_sampler(s, evens_oracle(), subsets, cap=3, n_samples=150,
                                     meta_seed=2) for s in (sampler, CountingSampler(sampler))]
    for law in laws:
        assert {key: sorted((s.key(), p) for s, p in table)
                for key, table in law.tables.items()} == expected
    assert laws[0].max_discrepancy == laws[1].max_discrepancy
    assert laws[0].worst_pair == laws[1].worst_pair


_AGE_LAW_SCRIPT = """
from relex import MExchangeableSampler, age_indexed_from_sampler, builtin_class
from relex.catalog import evens_oracle, two_coin_rules
sampler = MExchangeableSampler(two_coin_rules(), evens_oracle())
law = age_indexed_from_sampler(sampler, evens_oracle(), builtin_class("subsets"),
                               cap=3, n_samples=400, meta_seed=5)
print(repr(law.max_discrepancy), law.worst_pair)
"""


def test_age_indexed_discrepancy_does_not_depend_on_the_hash_seed():
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(relex.__file__).resolve().parent.parent))
        result = subprocess.run([sys.executable, "-c", _AGE_LAW_SCRIPT], env=env,
                                capture_output=True, text=True, check=True)
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].split()[0] == "0.11"

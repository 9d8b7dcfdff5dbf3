"""Rule-driven plans: the samples of one law share the tuples over its
points, their context keys and the table entries those allow, and differ
only in their draws.  Plans are checked against a sampler that reads its
rules entry by entry, sample by sample (`helpers.NaiveRuleSampler`)."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (NaiveRuleSampler, RecordingSource, naive_context_key, naive_decide,
                     naive_law, naive_restrict, random_structure)
from relex import rules as rules_module
from relex import samplers
from relex.amalgamation import builtin_class
from relex.catalog import (evens_oracle, parity_overlay_oracle, parity_overlay_rules,
                           random_graph_rules, same_class_triple_oracle, two_coin_rules,
                           weak_rep_rules)
from relex.embeddings import ensure_lazy
from relex.randomness import HierarchicalRandomSource, SeedStream, _labelled, _Subset
from relex.rules import (DecisionContext, FunctionDecisionFunction, TableDecisionFunction,
                         TableEntry, _Draws, _types)
from relex.samplers import ExchangeableSampler, MaxSegSampler, MExchangeableSampler
from relex.stattests import _tally
from relex.structures import Signature, Structure, restrict

GRAPH = Signature((("E", 2),))
# the evens on [1, 6], finite
REFERENCE_P = Structure(Signature((("P", 1),)), 6, {"P": [(2,), (4,), (6,)]})
# a finite reference with an edge, a path, a loop and an isolated point
REFERENCE = Structure(GRAPH, 5, {"E": [(1, 2), (2, 1), (2, 3), (3, 2), (4, 4)]})
KINDS = {"exchangeable": ("none",), "m-exchangeable": ("none", "restriction"),
         "maxseg": ("none", "restriction", "segment")}
PARTITIONS = [(), (0.5,), (0.25, 0.75), (0.1, 0.4, 0.9)]
N_SAMPLES = 8


def _reference_keys(arity, reference=REFERENCE):
    """Every key of the reference restricted to the range of a tuple of this arity."""
    keys = set()
    for tup in itertools.product(range(1, reference.n + 1), repeat=arity):
        support = sorted(set(tup))
        keys.add(naive_context_key(naive_restrict(reference, support),
                                   tuple(support.index(c) + 1 for c in tup)))
    return sorted(keys)


REFERENCE_KEYS = {arity: _reference_keys(arity) for arity in (1, 2, 3)}


def _reading_rule(ctx):
    """A function rule reading every channel a table reads."""
    keyed = ctx.context_mode != "none" and ctx.context_key().count("1") % 2 == 0
    return (ctx.xi((1,)) < 0.5) != (ctx.ordering_ranks()[0] == 0) != keyed


@st.composite
def _rule(draw, name, modes, keys=REFERENCE_KEYS):
    arity = draw(st.integers(1, 3), label="arity")
    mode = draw(st.sampled_from(modes), label="mode")
    partition = draw(st.sampled_from(PARTITIONS))
    if draw(st.integers(0, 3), label="function rule") == 0:
        return FunctionDecisionFunction(name, arity, _reading_rule, context_mode=mode,
                                        partition=partition)
    positions = st.lists(st.integers(1, arity), max_size=arity).map(tuple)

    def entry(_):
        conditions = {}
        if draw(st.booleans()):
            tup = draw(st.lists(st.integers(1, 3), min_size=arity, max_size=arity))
            conditions["pattern"] = tuple(list(dict.fromkeys(tup)).index(c) for c in tup)
        if mode != "none" and draw(st.booleans()):
            conditions["context_key"] = draw(st.sampled_from(keys[arity]))
        if draw(st.booleans()):
            conditions["thresholds"] = tuple(draw(st.lists(st.tuples(
                positions, st.frozensets(st.integers(0, len(partition)))), max_size=2)))
        if draw(st.booleans()):
            conditions["orderings"] = tuple(
                (pos, tuple(draw(st.lists(st.integers(0, max(len(pos) - 1, 0)),
                                          min_size=len(pos), max_size=len(pos)))))
                for pos in draw(st.lists(positions, max_size=2)))
        return TableEntry(bit=draw(st.booleans()), **conditions)

    entries = [entry(i) for i in range(draw(st.integers(0, 4), label="entries"))]
    return TableDecisionFunction(name, arity, entries, default=draw(st.booleans()),
                                 context_mode=mode, partition=partition)


@st.composite
def _rule_samplers(draw):
    """A library sampler over generated rules, and the naive one over the same."""
    kind = draw(st.sampled_from(sorted(KINDS)), label="kind")
    names = draw(st.sampled_from([("A",), ("A", "B")]), label="relations")
    rules = {name: draw(_rule(name, KINDS[kind])) for name in names}
    if kind == "exchangeable":
        return ExchangeableSampler(rules), NaiveRuleSampler(rules)
    make = MExchangeableSampler if kind == "m-exchangeable" else MaxSegSampler
    return make(rules, REFERENCE), NaiveRuleSampler(rules, REFERENCE)


def _assert_plan_matches_naive(sampler, naive, points, meta_seed, offset):
    seeds = SeedStream(meta_seed)
    tally = _tally(sampler, points, N_SAMPLES, seeds, offset)
    law = naive_law(naive, points, N_SAMPLES, seeds, offset)
    # the same outcomes, counts and first-seen order
    assert [(sample.key(), count) for sample, count in tally.items()] == list(law.counts.items())
    assert list(tally) == [law.structures[key] for key in law.counts]
    # per seed, the plan draws on no subset that deciding tuple by tuple leaves alone
    plan = sampler._plan(points)
    for i in range(3):
        planned, direct = RecordingSource(seeds[offset + i]), RecordingSource(seeds[offset + i])
        assert plan.structure(plan.bits(planned)) == naive.sample_on(direct, points)
        assert planned.drawn <= direct.drawn


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rule_samplers(), st.sets(st.integers(1, REFERENCE.n), min_size=1),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 50))
def test_tallies_from_plans_match_the_naive_law(samplers_, points, meta_seed, offset):
    sampler, naive = samplers_
    _assert_plan_matches_naive(sampler, naive, tuple(sorted(points)), meta_seed, offset)


def _decided_alone(rules, points, seed) -> tuple:
    """Each tuple over the sorted `points` decided on its own context, in
    plan order: a table rule entry by entry (`naive_decide`), a function rule
    by its `decide`."""
    reference = (None if rules.oracle is None
                 else ensure_lazy(rules.oracle).initial_segment(points[-1]))
    return tuple(
        (naive_decide if isinstance(df, TableDecisionFunction) else type(df).decide)(
            df, DecisionContext(HierarchicalRandomSource(seed), name, tup, df.partition,
                                df.context_mode, reference))
        for name, df in rules.steps for tup in itertools.product(points, repeat=df.arity))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rule_samplers(), st.sets(st.integers(1, REFERENCE.n), min_size=1),
       st.integers(0, 2 ** 32 - 1))
def test_compiled_bits_match_each_tuple_decided_alone(samplers_, points, seed):
    # tuples over the points share subsets ((1, 2) and (2, 1), (1, 1) and (1,)),
    # which the compiled program draws once a sample
    sampler, _ = samplers_
    points = tuple(sorted(points))
    plan = sampler._plan(points)
    assert plan.bits(HierarchicalRandomSource(seed)) == _decided_alone(sampler._rules, points, seed)


def test_entries_reading_one_set_through_other_positions_draw_it_once():
    # xi of {i, j} through (1, 2) and (2, 1), the order of {i, j} twice, and
    # an order that no ordering gives
    df = TableDecisionFunction("E", 2, [
        TableEntry(bit=True, thresholds=(((1, 2), frozenset({0})), ((2, 1), frozenset({0})))),
        TableEntry(bit=False, orderings=(((1, 2), (0, 1)),)),
        TableEntry(bit=True, orderings=(((2, 1), (0, 1)), ((1, 2), (0, 0))))],
        default=True, partition=(0.5,))
    sampler, points = ExchangeableSampler({"E": df}), (1, 3, 4)
    for seed in range(20):
        src = RecordingSource(seed)
        bits = sampler._plan(points).bits(src)
        assert bits == _decided_alone(sampler._rules, points, seed)
        assert set(src.calls.values()) == {1}


@pytest.mark.parametrize("seed", range(5))
def test_parity_overlay_draws_each_subset_once(seed):
    sampler = MExchangeableSampler(parity_overlay_rules(),
                                   parity_overlay_oracle(HierarchicalRandomSource(seed + 100)))
    planned = RecordingSource(seed)
    sample = sampler.sample(planned, 6)
    # one xi draw per point at most, where deciding tuple by tuple draws each
    # point's xi once for every tuple that reads it
    assert set(planned.calls.values()) == {1} and len(planned.calls) <= 6
    alone = RecordingSource(seed)
    reference = sampler.oracle.initial_segment(6)
    df = sampler.rules["S"]
    bits = [naive_decide(df, DecisionContext(alone, "S", tup, df.partition, "restriction",
                                             reference))
            for tup in itertools.product(range(1, 7), repeat=2)]
    assert sample.tuples("S") == tuple(itertools.compress(
        itertools.product(range(1, 7), repeat=2), bits))
    assert planned.drawn <= alone.drawn
    assert sum(alone.calls.values()) > 2 * sum(planned.calls.values())


@pytest.mark.parametrize("rules, oracle", [(random_graph_rules(), None),
                                           (weak_rep_rules(), same_class_triple_oracle())])
def test_samples_past_the_plan_bound_restrict_to_their_local_draws(rules, oracle):
    # 40 points carry 1,600 ordered pairs, past _MAX_PLANNED_STEPS: compiled
    # as walked and dropped
    sampler = (ExchangeableSampler(rules) if oracle is None else MaxSegSampler(rules, oracle))
    naive = NaiveRuleSampler(rules, oracle)
    for seed in range(3):
        whole = sampler.sample(HierarchicalRandomSource(seed), 40)
        assert whole == naive.sample(HierarchicalRandomSource(seed), 40)
        for points in [tuple(range(1, 41)), tuple(range(3, 41)), (2, 7, 39)]:
            assert sampler.sample_on(HierarchicalRandomSource(seed), points) == \
                restrict(whole, points)
    assert list(sampler._rules._plans) == [(2, 7, 39)]     # the only point set within the bound


@pytest.mark.parametrize("points", [(1, 2, 3), (2, 5, 6), (1, 4), (3,)])
def test_weak_rep_tallies_from_plans_match_the_naive_law(points):
    rules = weak_rep_rules()
    _assert_plan_matches_naive(MaxSegSampler(rules, same_class_triple_oracle()),
                               NaiveRuleSampler(rules, same_class_triple_oracle()),
                               points, meta_seed=5, offset=0)


def _resolved(df, tup, draws):
    """The entries that `resolve` binds `tup` to, its type read by `_types`."""
    return next(df.resolve([tup], draws, _types(None, [tup], len(tup))))


def test_resolve_keeps_the_entries_that_may_fire_up_to_an_unconditional_one():
    cells = (((1,), frozenset({0})),)
    df = TableDecisionFunction("E", 2, [
        TableEntry(bit=True, pattern=(0, 0), thresholds=cells),   # the diagonal only
        TableEntry(bit=False, thresholds=cells),
        TableEntry(bit=True, pattern=(0, 1)),                     # off it, no draw condition
        TableEntry(bit=False, thresholds=cells)], partition=(0.5,))
    draws = _Draws()
    off = _resolved(df, (9, 4), draws)
    assert [bit for bit, _, _ in off] == [False, True]
    (d, allowed), = off[0][1]
    assert allowed == frozenset({0}) and draws[d] == (9,)
    assert type(draws[d]) is _Subset and draws[d].text == b"9"
    assert off[1][1:] == ((), ())
    on = _resolved(df, (4, 4), draws)
    assert [bit for bit, _, _ in on] == [True, False, False]
    # every threshold of (4, 4) reads the set {4}: one id, labelled once
    assert len({d for _, thresholds, _ in on for d, _ in thresholds}) == 1
    assert list(draws.values()) == [(9,), (4,)]


def test_resolve_binds_orderings_to_the_entries_and_their_set():
    df = TableDecisionFunction("E", 3, [TableEntry(bit=True, orderings=(((3, 1, 3), (1, 0, 1)),))])
    draws = _Draws()
    (_, thresholds, orderings), = _resolved(df, (7, 2, 5), draws)
    (d, entries, ranks), = orderings
    assert thresholds == () and (entries, ranks) == ((5, 7, 5), (1, 0, 1))
    assert draws[d] == (5, 7)


def test_a_plan_resolves_each_tuple_once_for_all_seeds(monkeypatch):
    resolved = []
    resolve = TableDecisionFunction.resolve
    monkeypatch.setattr(TableDecisionFunction, "resolve", lambda df, tuples, draws, types: resolve(
        df, (resolved.append(tup) or tup for tup in tuples), draws, types))
    sampler = MExchangeableSampler(two_coin_rules(), evens_oracle())
    for points in ((2, 4), (1, 2), (2, 4)):
        _tally(sampler, points, 30, SeedStream(1), 0)
    sampler.sample_on(HierarchicalRandomSource(3), (4, 2))
    assert resolved == [(2,), (4,), (1,), (2,)]


def test_tuples_decided_without_a_draw_draw_nothing():
    complete = {"E": TableDecisionFunction("E", 2, [TableEntry(bit=True, pattern=(0, 1))])}
    src = RecordingSource(2)
    sample = ExchangeableSampler(complete).sample_on(src, (1, 3, 4))
    assert sample.tuples("E") == tuple(t for t in itertools.product((1, 2, 3), repeat=2)
                                       if t[0] != t[1])
    assert src.drawn == set()


def test_fresh_references_read_back_the_context_keys_of_earlier_ones(monkeypatch):
    keyed = []
    context_key = rules_module.context_key
    monkeypatch.setattr(rules_module, "context_key",
                        lambda structure, tup: keyed.append(tup) or context_key(structure, tup))
    monkeypatch.setattr(DecisionContext, "_keys", {})
    rules, src = two_coin_rules(), HierarchicalRandomSource(1)
    first = MExchangeableSampler(rules, evens_oracle()).sample(src, 40)
    assert keyed == [(1,), (1,)]      # one key with P at the point, one without
    assert MExchangeableSampler(rules, evens_oracle()).sample(src, 40) == first
    assert len(keyed) == 2
    # a hit does not hide a tuple outside the reference
    ctx = DecisionContext(src, "P", (7,), context_mode="restriction",
                          reference=evens_oracle().initial_segment(6))
    with pytest.raises(ValueError, match="universe"):
        ctx.context_key()


def test_labelled_subsets_are_taken_as_they_are():
    subset = _labelled((5, 2, 5))
    assert subset == (2, 5) and subset.text == b"2,5"
    assert HierarchicalRandomSource._check(subset) is subset
    src = HierarchicalRandomSource(4)
    assert src.xi(subset) == src.xi([5, 2]) and src.ordering(subset) == src.ordering((2, 5))
    assert type(src.ordering(_labelled((3,)))) is tuple
    with pytest.raises(ValueError, match="positive"):
        _labelled((0, 2))


@pytest.mark.parametrize("bound", [samplers._MAX_PLANNED_STEPS, 2])
def test_draws_past_the_plan_bound_hold_no_plan(monkeypatch, bound):
    monkeypatch.setattr(samplers, "_MAX_PLANNED_STEPS", bound)
    cases = [(MExchangeableSampler(two_coin_rules(), REFERENCE_P), NaiveRuleSampler(
                 two_coin_rules(), REFERENCE_P)),
             (MaxSegSampler(weak_rep_rules(), same_class_triple_oracle()),
              NaiveRuleSampler(weak_rep_rules(), same_class_triple_oracle()))]
    for sampler, naive in cases:
        for seed in range(4):
            assert sampler.sample(HierarchicalRandomSource(seed), 5) == \
                naive.sample(HierarchicalRandomSource(seed), 5)
            assert sampler.sample_on(HierarchicalRandomSource(seed), (2, 4, 5)) == \
                naive.sample_on(HierarchicalRandomSource(seed), (2, 4, 5))
        assert bool(sampler._rules._plans) == (bound > 25)


@pytest.mark.parametrize("bound", [samplers._MAX_PLANNED_STEPS, 3])
def test_step_plans_hand_the_source_labelled_subsets(monkeypatch, bound):
    monkeypatch.setattr(samplers, "_MAX_PLANNED_STEPS", bound)
    klass = builtin_class("graphs")
    klass._step_plans = None
    steps, last = samplers._step_plan(klass, 4)
    subsets = [s for s, *_ in steps]
    top = min(4, klass.forced_above or 4)
    # kept at the default bound, chained afresh past a bound of 3 steps
    assert last is (subsets[-1] if bound > 3 else None) and subsets == sorted(
        (s for k in range(1, top + 1) for s in itertools.combinations(range(1, 5), k)),
        key=lambda s: (s[-1], len(s), s))
    assert all(type(s) is _Subset and s.text == ",".join(map(str, s)).encode() for s in subsets)
    klass._step_plans = None


# --- types: a table tuple's pattern and context key, read by content ------------------

OVERLAY = Signature((("E", 2), ("R", 3)))


@st.composite
def _fresh_reference_samplers(draw):
    """A library sampler over a fresh random reference on [1, 4] of one of three
    signatures, with rules keyed by that reference's own keys, and the naive
    sampler over the same."""
    signature = draw(st.sampled_from([REFERENCE_P.signature, GRAPH, OVERLAY]), label="signature")
    reference = random_structure(random.Random(draw(st.integers(0, 2 ** 32 - 1))), signature, 4,
                                 density=draw(st.sampled_from([0.2, 0.5, 0.8])))
    keys = {arity: _reference_keys(arity, reference) for arity in (1, 2, 3)}
    kind = draw(st.sampled_from(["m-exchangeable", "maxseg"]), label="kind")
    rules = {name: draw(_rule(name, KINDS[kind][1:], keys)) for name in ("A", "B")}
    make = MExchangeableSampler if kind == "m-exchangeable" else MaxSegSampler
    return make(rules, reference), NaiveRuleSampler(rules, reference)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_fresh_reference_samplers(), st.sets(st.integers(1, 4), min_size=1),
       st.integers(0, 2 ** 32 - 1))
def test_plans_over_fresh_references_bind_each_tuple_to_its_type(samplers_, points, seed):
    # the type memo outlives each reference: later examples read the contents
    # that earlier references of the same signature stored
    sampler, naive = samplers_
    points = tuple(sorted(points))
    bits = sampler._plan(points).bits(HierarchicalRandomSource(seed))
    assert bits == _decided_alone(sampler._rules, points, seed)
    assert sampler._plan(points).structure(bits) == naive.sample_on(
        HierarchicalRandomSource(seed), points)


def test_a_keyed_table_past_the_plan_bound_matches_the_naive_sampler():
    # 1,100 unary tuples over a fresh reference, past _MAX_PLANNED_STEPS
    rules = two_coin_rules()
    for seed in range(2):
        sampler = MExchangeableSampler(rules, evens_oracle())
        assert sampler.sample(HierarchicalRandomSource(seed), 1100) == NaiveRuleSampler(
            rules, evens_oracle()).sample(HierarchicalRandomSource(seed), 1100)
        assert sampler._rules._plans == {}


def test_references_of_two_signatures_with_one_content_get_their_own_keys(monkeypatch):
    # P and Q both hold at 1: one tuple mapped onto [1, 1], one hold bit
    monkeypatch.setattr(DecisionContext, "_keys", {})
    references = [Structure(Signature(((name, 1),)), 2, {name: [(1,)]}) for name in "PQ"]
    keys = [naive_context_key(naive_restrict(ref, [1]), (1,)) for ref in references]
    assert keys[0] != keys[1]
    for i in (0, 1, 1, 0):
        ctx = DecisionContext(None, "S", (1,), context_mode="restriction", reference=references[i])
        assert ctx.context_key() == keys[i]
        rules = {"S": TableDecisionFunction("S", 1, [TableEntry(bit=True, context_key=keys[i])],
                                            context_mode="restriction")}
        sample = MExchangeableSampler(rules, references[i]).sample(HierarchicalRandomSource(i), 2)
        assert sample.tuples("S") == ((1,),)
    # one memo a signature, each with two contents: P (or Q) at the point or not
    assert {sig.names(): len(memo) for sig, memo in DecisionContext._keys.items()} == \
        {("P",): 2, ("Q",): 2}
    # a memo hit does not hide a tuple outside the reference
    with pytest.raises(ValueError, match="universe"):
        list(_types(references[0], [(1,), (3,)], 1))
    with pytest.raises(ValueError, match="universe"):
        DecisionContext(None, "S", (1, 3), context_mode="segment",
                        reference=references[0]).context_key()


@pytest.mark.parametrize("seed", range(3))
def test_a_weak_rep_sample_draws_each_set_once(seed):
    rules = weak_rep_rules()
    src = RecordingSource(seed)
    sample = MaxSegSampler(rules, same_class_triple_oracle()).sample(src, 10)
    # each function-rule tuple (i, j), i != j, reads xi of {i}: one call per set
    assert src.calls == Counter({("xi", (i,)): 1 for i in range(1, 11)})
    assert sample == NaiveRuleSampler(rules, same_class_triple_oracle()).sample(
        HierarchicalRandomSource(seed), 10)


def test_function_rules_and_tables_share_the_draws_of_a_sample():
    entries = [TableEntry(bit=True, thresholds=(((1,), frozenset({0})),),
                          orderings=(((1, 2), (0, 1)),))]

    def reading(ctx):
        return ctx.xi((1,)) < 0.5 and ctx.ordering_ranks() == (1, 0)
    for names in ("AB", "BA"):   # the table's steps first, then the function's, and back
        rules = {names[0]: TableDecisionFunction(names[0], 2, entries, partition=(0.5,)),
                 names[1]: FunctionDecisionFunction(names[1], 2, reading)}
        sampler, naive = ExchangeableSampler(rules), NaiveRuleSampler(rules)
        for seed in range(6):
            src = RecordingSource(seed)
            assert sampler.sample_on(src, (2, 3, 5)) == naive.sample_on(
                HierarchicalRandomSource(seed), (2, 3, 5))
            assert set(src.calls.values()) == {1}
    # a context on its own draws on every call
    src = RecordingSource(1)
    ctx = DecisionContext(src, "B", (3, 5))
    for _ in range(2):
        ctx.xi((1,)), ctx.ordering_ranks()
    assert src.calls == Counter({("xi", (3,)): 2, ("ordering", (3, 5)): 2})


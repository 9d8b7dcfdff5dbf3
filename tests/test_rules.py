"""Decision functions: contexts, table matching, validation, JSON format."""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_context_key, naive_decide, random_structure
from relex import (DecisionContext, FunctionDecisionFunction,
                   HierarchicalRandomSource, MExchangeableSampler, Signature,
                   Structure, TableEntry,
                   TableDecisionFunction, canonical_form, context_key,
                   ensure_lazy, load_rules, normalize_rules, restrict,
                   rules_from_json, rules_signature, tuple_pattern)
from relex.catalog import (evens_oracle, odd_target_oracle, parity_overlay_oracle,
                           same_class_triple_oracle)
from relex.rules import CONTEXT_MODES

RULES_DIR = Path(__file__).resolve().parent.parent / "rules"
GRAPH = Signature((("E", 2),))


# --- patterns and context keys ------------------------------------------------------

def test_tuple_pattern_dense_first_occurrence():
    assert tuple_pattern((7,)) == (0,)
    assert tuple_pattern((7, 7)) == (0, 0)
    assert tuple_pattern((7, 2)) == (0, 1)
    assert tuple_pattern((5, 9, 5, 1)) == (0, 1, 0, 2)
    assert tuple_pattern(()) == ()


def test_context_key_invariant_under_relabeling():
    s = Structure(GRAPH, 3, {"E": [(1, 2), (2, 1)]})
    # same situation with roles permuted: edge between the tuple's elements
    t = Structure(GRAPH, 3, {"E": [(2, 3), (3, 2)]})
    assert context_key(s, (1, 2)) == context_key(t, (3, 2))
    # tuple order matters when the situation is asymmetric
    d = Structure(GRAPH, 2, {"E": [(1, 2)]})
    assert context_key(d, (1, 2)) != context_key(d, (2, 1))


def test_context_key_separates_different_situations():
    edge = Structure(GRAPH, 2, {"E": [(1, 2), (2, 1)]})
    non_edge = Structure(GRAPH, 2)
    assert context_key(edge, (1, 2)) != context_key(non_edge, (1, 2))


def test_context_key_and_canonical_form_match_brute_force():
    # canonical_form and context_key share one memoized search; a plain
    # loop over every relabeling is the reference
    rng = random.Random(1509)
    sig = Signature((("E", 2), ("P", 1), ("R", 3)))
    for _ in range(240):
        n = rng.randint(0, 4)
        s = random_structure(rng, sig, n, density=rng.choice((0.15, 0.4, 0.7)))
        assert f"{canonical_form(s).key()}|[]" == naive_context_key(s, ())
        for arity in (1, 2):
            for tup in itertools.product(range(1, n + 1), repeat=arity):
                assert context_key(s, tup) == naive_context_key(s, tup)


# --- DecisionContext -------------------------------------------------------------------

def _ctx(tup, partition=(0.5,), seed=3, mode="none", reference=None):
    return DecisionContext(
        HierarchicalRandomSource(seed), "E", tup, partition=partition,
        context_mode=mode, reference=reference)


def test_context_elements_subset_and_positions():
    ctx = _ctx((4, 9, 4))
    assert ctx.elements() == (4, 9, 4)            # positions are tuple slots
    assert ctx.elements((2,)) == (9,)
    assert ctx.elements((3, 1)) == (4, 4)
    assert ctx.subset() == (4, 9)                 # sorted distinct entries
    assert ctx.subset((1, 3)) == (4,)
    assert ctx.pattern() == (0, 1, 0)


def test_context_xi_matches_source():
    src = HierarchicalRandomSource(3)
    ctx = DecisionContext(src, "E", (4, 9), partition=(0.5,), context_mode="none",
                          reference=None)
    assert ctx.xi() == src.xi((4, 9))
    assert ctx.xi((1,)) == src.xi((4,))
    assert ctx.xi(()) == src.xi(())


def test_context_interval_uses_partition():
    ctx = _ctx((1, 2), partition=(0.25, 0.75))
    u = ctx.xi()
    expected = 0 if u < 0.25 else (1 if u < 0.75 else 2)
    assert ctx.interval() == expected


def test_context_ordering_ranks_match_source_order():
    src = HierarchicalRandomSource(11)
    ctx = DecisionContext(src, "E", (4, 9, 4), partition=(), context_mode="none",
                          reference=None)
    order = src.ordering((4, 9))
    pos = {v: r for r, v in enumerate(order)}
    assert ctx.ordering_ranks() == (pos[4], pos[9], pos[4])


def test_context_restriction_and_key_modes():
    ref = Structure(GRAPH, 9, {"E": [(4, 9), (9, 4)]})
    ctx = _ctx((4, 9), mode="restriction", reference=ref)
    assert ctx.restriction().has("E", (1, 2))
    edge_local = Structure(GRAPH, 2, {"E": [(1, 2), (2, 1)]})
    assert ctx.context_key() == context_key(edge_local, (1, 2))

    ctx_none = _ctx((4, 9), mode="none")
    with pytest.raises(ValueError):
        ctx_none.context_key()


MEMO_ORACLES = {
    "evens": evens_oracle,
    "same-class-triple": same_class_triple_oracle,
    "odd-target": odd_target_oracle,
    **{f"parity-overlay-{seed}": (lambda seed=seed: parity_overlay_oracle(
        HierarchicalRandomSource(seed))) for seed in (0, 1, 2)},
    "finite": lambda: ensure_lazy(Structure(GRAPH, 5, {"E": [(1, 2), (2, 1), (2, 5), (4, 4)]})),
}


@pytest.mark.parametrize("name", sorted(MEMO_ORACLES))
def test_memoized_context_keys_match_fresh_keys(name):
    oracle = MEMO_ORACLES[name]()
    for n in range(1, 6):
        reference = oracle.initial_segment(n)
        for _ in range(2):   # the second pass reads every key from the memo
            for arity in (1, 2, 3):
                for tup in itertools.product(range(1, n + 1), repeat=arity):
                    subset = sorted(set(tup))
                    fresh = context_key(restrict(reference, subset),
                                        tuple(subset.index(c) + 1 for c in tup))
                    for mode in ("restriction", "segment"):
                        ctx = _ctx(tup, mode=mode, reference=reference)
                        assert ctx.context_key() == fresh, (n, tup, mode)


@pytest.mark.parametrize("first", [0, 1])
def test_context_key_memos_stay_with_their_reference(first):
    # the same tuple over two references that differ on it
    references = (Structure(GRAPH, 3, {"E": [(1, 3), (3, 1)]}), Structure(GRAPH, 3))
    expected = [context_key(restrict(ref, (1, 3)), (1, 2)) for ref in references]
    assert expected[0] != expected[1]
    for _ in range(2):
        for i in (first, 1 - first):
            ctx = _ctx((1, 3), mode="restriction", reference=references[i])
            assert ctx.context_key() == expected[i]


def test_context_validates_mode_and_positions():
    # unknown modes surface when the reference channel is actually read
    with pytest.raises(ValueError):
        _ctx((1, 2), mode="sideways").context_key()
    ctx = _ctx((1, 2))
    with pytest.raises(ValueError):
        ctx.elements((0,))
    with pytest.raises(ValueError):
        ctx.elements((3,))
    with pytest.raises(ValueError):
        ctx.restriction()   # no provider in mode none


def test_reference_channels_keep_to_the_rules_context_mode():
    # a restriction-mode rule reading the segment would see Q(3) and not
    # Q(1), two odd points of the evens reference, in every seed
    peek = FunctionDecisionFunction("Q", 1, lambda ctx: ctx.segment().has("P", (2,)),
                                    context_mode="restriction")
    with pytest.raises(ValueError, match="segment is unavailable in context mode 'restriction'"):
        MExchangeableSampler({"Q": peek}, evens_oracle()).sample(HierarchicalRandomSource(0), 3)
    # a none-mode rule may not read the reference that another rule brought in
    blind = FunctionDecisionFunction("A", 1, lambda ctx: ctx.restriction().has("P", (1,)))
    keyed = FunctionDecisionFunction("B", 1, lambda ctx: ctx.context_key() is not None,
                                     context_mode="restriction")
    with pytest.raises(ValueError, match="restriction is unavailable in context mode 'none'"):
        MExchangeableSampler({"A": blind, "B": keyed}, evens_oracle()).sample(
            HierarchicalRandomSource(0), 3)
    # the segment channel serves segment mode, which may also read the restriction
    ref = evens_oracle().initial_segment(4)
    ctx = _ctx((3,), mode="segment", reference=ref)
    assert ctx.segment().n == 3 and ctx.restriction().n == 1


# --- table decision functions --------------------------------------------------------------

def _erdos_renyi():
    return TableDecisionFunction(
        "E", 2,
        entries=(TableEntry(bit=True, pattern=(0, 1),
                            thresholds=(((1, 2), frozenset({0})),)),),
        default=False, context_mode="none", partition=(0.5,))


def test_first_match_wins_and_default_applies():
    df = TableDecisionFunction(
        "E", 2,
        entries=(
            TableEntry(bit=False, pattern=(0, 0)),
            TableEntry(bit=True),                      # unconstrained catch-all
            TableEntry(bit=False),                     # unreachable
        ),
        default=False, context_mode="none", partition=())
    assert df.decide(_ctx((3, 3), partition=())) is False
    assert df.decide(_ctx((3, 4), partition=())) is True

    empty = TableDecisionFunction("E", 2, entries=(), default=True,
                                  context_mode="none", partition=())
    assert empty.decide(_ctx((1, 2), partition=())) is True


def test_threshold_and_ordering_conditions():
    df = _erdos_renyi()
    for seed in range(40):
        ctx = _ctx((1, 2), seed=seed)
        assert df.decide(ctx) == (ctx.xi() < 0.5)
        assert df.decide(_ctx((1, 1), seed=seed)) is False   # pattern excludes loops

    tournament = TableDecisionFunction(
        "E", 2,
        entries=(TableEntry(bit=True, pattern=(0, 1),
                            orderings=(((1, 2), (0, 1)),)),),
        default=False, context_mode="none", partition=())
    for seed in range(30):
        src = HierarchicalRandomSource(seed)
        fwd = tournament.decide(DecisionContext(
            src, "E", (1, 2), partition=(), context_mode="none",
            reference=None))
        bwd = tournament.decide(DecisionContext(
            src, "E", (2, 1), partition=(), context_mode="none",
            reference=None))
        assert fwd != bwd   # exactly one orientation


def test_validation_rejects_malformed_rules():
    with pytest.raises(ValueError):
        TableDecisionFunction("E", 0, entries=(), default=False,
                              context_mode="none", partition=())
    with pytest.raises(ValueError):
        TableDecisionFunction("E", 2, entries=(), default=False,
                              context_mode="none", partition=(0.7, 0.2))   # not increasing
    with pytest.raises(ValueError):
        TableDecisionFunction("E", 2, entries=(), default=False,
                              context_mode="none", partition=(0.0,))       # breakpoint at edge
    with pytest.raises(ValueError):          # pattern not dense
        TableDecisionFunction("E", 2, entries=(TableEntry(bit=True, pattern=(1, 0)),),
                              default=False, context_mode="none", partition=())
    with pytest.raises(ValueError):          # pattern wrong length
        TableDecisionFunction("E", 2, entries=(TableEntry(bit=True, pattern=(0,)),),
                              default=False, context_mode="none", partition=())
    with pytest.raises(ValueError):          # interval index out of range
        TableDecisionFunction("E", 2,
                              entries=(TableEntry(bit=True,
                                                  thresholds=(((1,), frozenset({2})),)),),
                              default=False, context_mode="none", partition=(0.5,))
    with pytest.raises(ValueError):          # threshold position out of range
        TableDecisionFunction("E", 2,
                              entries=(TableEntry(bit=True,
                                                  thresholds=(((3,), frozenset({0})),)),),
                              default=False, context_mode="none", partition=(0.5,))
    with pytest.raises(ValueError):          # ordering position out of range
        TableDecisionFunction("E", 2,
                              entries=(TableEntry(bit=True,
                                                  orderings=(((1, 5), (0, 1)),)),),
                              default=False, context_mode="none", partition=())
    with pytest.raises(ValueError):
        TableDecisionFunction("E", 2, entries=(), default=False,
                              context_mode="diagonal", partition=())


def test_function_decision_function():
    df = FunctionDecisionFunction("E", 2, lambda ctx: ctx.tuple[0] < ctx.tuple[1],
                                  context_mode="none", partition=())
    assert df.decide(_ctx((1, 2), partition=())) is True
    assert df.decide(_ctx((2, 1), partition=())) is False


class _LoggingSource(HierarchicalRandomSource):
    """Records every draw, call for call: its kind and the set drawn on,
    sorted (the source reads a subset with repeats as its set)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.log = []

    def xi(self, subset=()):
        self.log.append(("xi", tuple(sorted(set(subset)))))
        return super().xi(subset)

    def ordering(self, subset):
        self.log.append(("ordering", tuple(sorted(set(subset)))))
        return super().ordering(subset)


# a finite reference with an edge, a path, a loop and an isolated point
TABLE_REFERENCE = Structure(GRAPH, 5, {"E": [(1, 2), (2, 1), (2, 3), (3, 2), (4, 4)]})


def _reference_keys(arity):
    keys = set()
    for tup in itertools.product(range(1, TABLE_REFERENCE.n + 1), repeat=arity):
        subset = sorted(set(tup))
        keys.add(context_key(restrict(TABLE_REFERENCE, subset),
                             tuple(subset.index(c) + 1 for c in tup)))
    return sorted(keys)


@st.composite
def _tables(draw):
    arity = draw(st.integers(1, 3), label="arity")
    partition = draw(st.sampled_from([(), (0.5,), (0.25, 0.75), (0.1, 0.4, 0.9)]))
    # positions as a caller may pass them: tuples or lists
    positions = st.lists(st.integers(1, arity), max_size=arity).flatmap(
        lambda pos: st.sampled_from((tuple(pos), pos)))
    keyed = draw(st.booleans(), label="keyed")

    def entry(_):
        conditions = {}
        if draw(st.booleans()):
            conditions["pattern"] = draw(st.sampled_from((tuple, list)))(tuple_pattern(draw(
                st.lists(st.integers(1, 3), min_size=arity, max_size=arity))))
        if keyed and draw(st.booleans()):
            conditions["context_key"] = draw(st.sampled_from(_reference_keys(arity)))
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
    mode = draw(st.sampled_from(("restriction", "segment") if keyed else CONTEXT_MODES))
    return TableDecisionFunction("E", arity, entries, default=draw(st.booleans()),
                                 context_mode=mode, partition=partition)


@settings(max_examples=300, deadline=None)
@given(_tables(), st.data(), st.integers(0, 2 ** 64 - 1))
def test_table_decisions_match_the_checked_channels(df, data, seed):
    # the table reads its checked positions without re-checking them: the
    # same bit and the same draws as through the public channels
    tup = tuple(data.draw(st.lists(st.integers(1, TABLE_REFERENCE.n), min_size=df.arity,
                                   max_size=df.arity), label="tuple"))
    sources = [_LoggingSource(seed) for _ in range(2)]
    ctxs = [DecisionContext(src, "E", tup, df.partition, df.context_mode, TABLE_REFERENCE)
            for src in sources]
    # the table keeps what it checked: patterns and positions as tuples
    for entry in df.entries:
        conditions = (entry.thresholds or ()) + (entry.orderings or ())
        assert all(type(tup) is tuple for tup in [entry.pattern or ()] + [p for p, _ in conditions])
    assert df.decide(ctxs[0]) == naive_decide(df, ctxs[1])
    assert sources[0].log == sources[1].log
    # the public channels still check what they are asked
    bad = data.draw(st.integers(-2, 0) | st.integers(df.arity + 1, df.arity + 3), label="bad")
    for channel in (ctxs[0].xi, ctxs[0].interval, ctxs[0].ordering_ranks):
        with pytest.raises(ValueError, match="out of range"):
            channel((1, bad))


def test_table_decide_draws_once_per_positions_as_the_channels_do():
    # (1,) is read by both entries and (2,) by the second: on (4, 4) both
    # positions select {4}, drawn once per positions, as the channels draw
    df = TableDecisionFunction("E", 2, entries=(
        TableEntry(bit=False, thresholds=(((1,), frozenset()),)),
        TableEntry(bit=True, thresholds=(((1,), frozenset({0, 1})), ((2,), frozenset({0, 1}))))),
        partition=(0.5,))
    sources = [_LoggingSource(5) for _ in range(2)]
    ctxs = [DecisionContext(src, "E", (4, 4), df.partition) for src in sources]
    assert df.decide(ctxs[0]) is naive_decide(df, ctxs[1]) is True
    assert sources[0].log == sources[1].log == [("xi", (4,)), ("xi", (4,))]


def test_table_positions_beyond_a_short_tuple_raise():
    # a context whose tuple is shorter than the table's arity
    for condition in ({"thresholds": (((2,), frozenset({0})),)},
                      {"orderings": (((1, 2), (0, 1)),)}):
        df = TableDecisionFunction("E", 2, entries=(TableEntry(bit=True, **condition),),
                                   partition=(0.5,))
        with pytest.raises(ValueError, match="out of range"):
            df.decide(_ctx((1,)))


# --- normalization --------------------------------------------------------------------------

def test_normalize_rules_accepts_three_shapes():
    df = _erdos_renyi()
    assert normalize_rules(df) == {"E": df}
    assert normalize_rules({"E": df}) == {"E": df}
    assert normalize_rules([df]) == {"E": df}
    with pytest.raises(ValueError):
        normalize_rules([df, df])    # duplicate relation
    with pytest.raises(ValueError):
        normalize_rules({"F": df})   # name disagrees with rule


def test_rules_signature_orders_by_name():
    p = TableDecisionFunction("P", 1, entries=(), default=False,
                              context_mode="none", partition=())
    e = _erdos_renyi()
    sig = rules_signature({"P": p, "E": e})
    assert sig == Signature((("E", 2), ("P", 1)))


# --- JSON round trips --------------------------------------------------------------------------

def test_json_round_trip_through_dict_and_text():
    df = _erdos_renyi()
    doc = df.to_json()
    again = rules_from_json(doc)["E"]
    assert again.to_json() == doc
    assert rules_from_json([doc])["E"].to_json() == doc
    assert rules_from_json({"rules": [doc]})["E"].to_json() == doc


def test_position_keys_accept_spacing_variants():
    doc = {
        "relation": {"name": "E", "arity": 2},
        "context": "none",
        "partition": [0.5],
        "default": 0,
        "entries": [
            {"bit": 1, "pattern": [0, 1], "thresholds": {"[1,2]": [0]}},
            {"bit": 1, "pattern": [0, 1], "thresholds": {"[1, 2]": [0]}},
        ],
    }
    df = rules_from_json(doc)["E"]
    first, second = df.entries
    assert first.thresholds == second.thresholds


def test_shipped_rules_files_load_and_round_trip():
    paths = sorted(RULES_DIR.glob("*.json"))
    assert len(paths) == 6
    for path in paths:
        rules = load_rules(str(path))
        assert len(rules) == 1
        df = next(iter(rules.values()))
        doc = json.loads(path.read_text())
        assert df.to_json() == doc


def test_shipped_rules_agree_with_catalog_builders():
    from relex.catalog import (complete_graph_rules, mixed_two_coin_rules,
                               parity_overlay_rules, random_graph_rules,
                               tournament_rules, two_coin_rules)
    expected = {
        "random_graph.json": random_graph_rules()["E"],
        "tournament.json": tournament_rules()["E"],
        "complete.json": complete_graph_rules()["E"],
        "two_coin.json": two_coin_rules()["P"],
        "two_coin_mixed.json": mixed_two_coin_rules()["P"],
        "parity_xor.json": parity_overlay_rules()["S"],
    }
    for filename, df in expected.items():
        loaded = load_rules(str(RULES_DIR / filename))
        assert next(iter(loaded.values())).to_json() == df.to_json()


def test_segment_mode_keys_the_restriction():
    references = (evens_oracle().initial_segment(6),
                  parity_overlay_oracle(HierarchicalRandomSource(3)).initial_segment(6))
    checked = 0
    for path in sorted(RULES_DIR.glob("*.json")):
        df = next(iter(load_rules(str(path)).values()))
        if df.context_mode != "restriction":
            continue
        checked += 1
        for reference, seed in itertools.product(references, range(3)):
            src = HierarchicalRandomSource(seed)
            for tup in itertools.product(range(1, 7), repeat=df.arity):
                ctxs = [DecisionContext(src, df.relation, tup, partition=df.partition,
                                        context_mode=mode, reference=reference)
                        for mode in ("restriction", "segment")]
                assert ctxs[0].context_key() == ctxs[1].context_key()
                assert df.decide(ctxs[0]) == df.decide(ctxs[1])
    assert checked == 3


def test_rules_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        rules_from_json({"context": "none"})                  # missing relation
    with pytest.raises(ValueError):
        rules_from_json({"relation": {"name": "E", "arity": 2},
                         "context": "none", "partition": [], "default": 0,
                         "entries": [{"pattern": [0, 1]}]})   # entry missing bit

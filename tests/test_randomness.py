"""Subset-keyed randomness: determinism, independence of query order,
distributional sanity, induced orderings, permutation ranks, seed streams."""

import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relex import (HierarchicalRandomSource, InducedOrdering, SeedStream,
                   induced_ordering, permutation_rank)
from relex.randomness import _MEMO_MAX_LEN, _label, _labelled

from helpers import naive_keyed_draws


# --- xi ---------------------------------------------------------------------------

def test_xi_is_a_pure_function_of_seed_and_subset():
    src = HierarchicalRandomSource(42)
    assert src.xi((1, 2)) == src.xi((1, 2))
    assert src.xi((2, 1)) == src.xi((1, 2))          # order-insensitive
    assert src.xi((1, 2, 2)) == src.xi((1, 2))       # duplicate-insensitive
    assert src.xi((1, 2)) == HierarchicalRandomSource(42).xi((1, 2))
    assert src.xi(()) == src.xi([])


def test_xi_varies_across_seeds_and_subsets():
    a = HierarchicalRandomSource(1)
    b = HierarchicalRandomSource(2)
    assert a.xi((1,)) != b.xi((1,))
    assert a.xi((1,)) != a.xi((2,))
    assert a.xi((1,)) != a.xi((1, 2))
    assert a.xi(()) != a.xi((1,))


def test_xi_range_and_mean():
    values = [HierarchicalRandomSource(seed).xi((1, 2, 3)) for seed in range(4000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    # mean of 4000 uniforms: sigma = 1/sqrt(12*4000) ~ 0.0046; allow 5 sigma
    assert abs(mean - 0.5) < 0.023


def test_xi_rejects_bad_subsets():
    src = HierarchicalRandomSource(0)
    with pytest.raises(ValueError):
        src.xi((0,))
    with pytest.raises(ValueError):
        src.xi((-3, 2))


@pytest.mark.parametrize("subset, culprit", [((1.5,), "1.5"), ((2.9, 1), "2.9"),
                                             ((2.0,), "2.0"), ("12", "'1'"),
                                             ((1, None), "None")])
def test_non_integral_subset_elements_are_rejected(subset, culprit):
    src = HierarchicalRandomSource(0)
    for draw in (src.xi, src.ordering):
        with pytest.raises(ValueError, match=f"subset element {re.escape(culprit)} "):
            draw(subset)


def test_integral_stand_ins_are_accepted():
    np = pytest.importorskip("numpy")
    src = HierarchicalRandomSource(3)
    assert src.xi((True, np.int64(2))) == src.xi((1, 2))
    assert src.ordering(np.arange(1, 4)) == src.ordering((1, 2, 3))


@pytest.mark.parametrize("make, culprit", [
    (lambda: HierarchicalRandomSource(2.7), "seed 2.7 "),
    (lambda: HierarchicalRandomSource("5"), "seed '5' "),
    (lambda: HierarchicalRandomSource(None), "seed None "),
    (lambda: SeedStream(0.9), "meta seed 0.9 "),
    (lambda: SeedStream("1"), "meta seed '1' "),
    (lambda: SeedStream(0)[1.5], "stream index 1.5 "),
    (lambda: SeedStream(0)["3"], "stream index '3' "),
    (lambda: SeedStream(0).take(2, offset=0.5), "stream index 0.5 ")])
def test_non_integral_seeds_and_stream_indices_are_rejected(make, culprit):
    with pytest.raises(ValueError, match=f"^{re.escape(culprit)}is not an integer"):
        make()


def test_integral_seed_stand_ins_are_accepted():
    np = pytest.importorskip("numpy")
    assert HierarchicalRandomSource(True).xi((1,)) == HierarchicalRandomSource(1).xi((1,))
    assert (HierarchicalRandomSource(np.uint64(2 ** 63)).ordering((1, 2, 3))
            == HierarchicalRandomSource(2 ** 63).ordering((1, 2, 3)))
    assert SeedStream(np.int64(7))[np.int32(3)] == SeedStream(7)[3]
    assert SeedStream(False)[True] == SeedStream(0)[1]


# --- ordering ----------------------------------------------------------------------

def test_ordering_is_a_permutation_and_deterministic():
    src = HierarchicalRandomSource(9)
    order = src.ordering((5, 2, 9))
    assert sorted(order) == [2, 5, 9]
    assert order == src.ordering((9, 5, 2))
    assert order == HierarchicalRandomSource(9).ordering((2, 5, 9))


def test_ordering_uniform_over_permutations():
    counts = Counter(HierarchicalRandomSource(seed).ordering((1, 2, 3))
                     for seed in range(6000))
    assert len(counts) == 6
    for order, count in counts.items():
        # each of 6 orders: p = 1/6, sigma = sqrt(p(1-p)/6000)*6000 ~ 28.9
        assert abs(count - 1000) < 5 * 29, (order, count)


def test_ordering_independent_of_xi_queries():
    a = HierarchicalRandomSource(7)
    expected = a.ordering((1, 2))
    b = HierarchicalRandomSource(7)
    b.xi((1, 2))
    b.xi((1,))
    assert b.ordering((1, 2)) == expected


# --- the documented construction ---------------------------------------------------

def test_draws_match_the_documented_construction():
    rng = random.Random(20261018)
    for _ in range(200):
        seed = rng.choice((rng.randrange(2 ** 64), rng.randrange(-2 ** 70, 2 ** 70)))
        size = rng.choice((0, 1, 2, 3, 4, 5, 8, 31, 33, 64, 257))
        subset = rng.sample(range(1, 3 * size + 2), size)
        src = HierarchicalRandomSource(seed)
        assert (src.xi(subset), src.ordering(subset)) == naive_keyed_draws(seed, subset)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70), st.lists(st.integers(1, 12), max_size=8))
def test_random_subsets_match_the_documented_construction(seed, subset):
    """Unsorted, duplicated subsets; the label memo is warm for many of them."""
    src = HierarchicalRandomSource(seed)
    assert (src.xi(subset), src.ordering(subset)) == naive_keyed_draws(seed, subset)



def test_every_input_kind_draws_the_documented_construction():
    """Labelled subsets are drawn as they are, every other kind through the
    checks; each gives the documented draws, at sizes 0 to 3 and past the
    label memo."""
    np = pytest.importorskip("numpy")
    rng = random.Random(20261020)
    for seed in range(500):
        seed = seed if seed % 2 else rng.randrange(-2 ** 70, 2 ** 70)
        src = HierarchicalRandomSource(seed)
        for size in (0, 1, 2, 3, _MEMO_MAX_LEN + 1):
            subset = rng.sample(range(1, 30), size)
            expected = naive_keyed_draws(seed, subset)
            spellings = [tuple(subset), list(subset), np.array(subset, dtype=np.int64)]
            spellings.append(_labelled(subset) if size > _MEMO_MAX_LEN else _label(tuple(subset)))
            for spelling in spellings:
                drawn = (src.xi(spelling), src.ordering(spelling))
                assert drawn == expected, (seed, size, type(spelling))
                assert type(drawn[1]) is tuple and all(type(x) is int for x in drawn[1])


def test_pair_orderings_match_the_documented_construction():
    """A pair's ordering is one bit; both outcomes, every spelling of the pair."""
    np = pytest.importorskip("numpy")
    rng = random.Random(20261019)
    outcomes = Counter()
    for seed in range(-1000, 1000):
        seed = seed if seed % 3 else rng.randrange(2 ** 64)
        a, b = sorted(rng.sample(range(1, 40), 2))
        expected = naive_keyed_draws(seed, (a, b))[1]
        outcomes[expected == (b, a)] += 1
        src = HierarchicalRandomSource(seed)
        for spelling in ((a, b), [b, a], (np.int64(b), np.int32(a)), _labelled((a, b))):
            drawn = src.ordering(spelling)
            assert drawn == expected and type(drawn) is tuple
            assert all(type(x) is int for x in drawn)
    assert min(outcomes.values()) > 900          # both outcomes, each about half


def test_pair_orderings_keep_every_check():
    src = HierarchicalRandomSource(5)
    src.ordering((1, 2))                              # memoises (1, 2)
    for subset, message in (((1.5, 2), "subset element 1.5 "), (("2", 1), "subset element '2' "),
                            ((0, 2), "positive integers")):
        with pytest.raises(ValueError, match=re.escape(message)):
            src.ordering(subset)


# --- the label memo keeps every check ----------------------------------------------

def test_memoised_subset_keeps_every_check():
    src = HierarchicalRandomSource(11)
    src.xi((1, 2))                                    # memoises (1, 2)
    for draw in (src.xi, src.ordering):
        for subset, culprit in (((1.0, 2.0), "1.0"), (("1", 2), "'1'"),
                                ((x for x in (1, 2.0)), "2.0")):
            with pytest.raises(ValueError, match=f"subset element {re.escape(culprit)} "):
                draw(subset)
        for _ in range(2):                            # a rejection is not memoised
            with pytest.raises(ValueError, match="positive integers"):
                draw((0, 1))


def test_memoised_subset_draws_the_same_for_every_spelling():
    np = pytest.importorskip("numpy")
    src = HierarchicalRandomSource(12)
    xi, order = src.xi((1, 2)), src.ordering((1, 2))
    for spelling in (lambda: (2, 1, 2), lambda: (True, 2), lambda: [np.int64(2), np.int64(1)],
                     lambda: (x for x in (2, 1))):
        assert src.xi(spelling()) == xi
        drawn = src.ordering(spelling())
        assert drawn == order and all(type(x) is int for x in drawn)


def test_only_short_subsets_are_memoised():
    src = HierarchicalRandomSource(13)
    before = _label.cache_info()
    src.xi(range(1, _MEMO_MAX_LEN + 2))               # one too long: labelled afresh
    src.ordering(range(_MEMO_MAX_LEN + 1, 0, -1))
    assert _label.cache_info() == before
    src.xi(range(1, _MEMO_MAX_LEN + 1))               # the longest memoised
    after = _label.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1


# --- induced orderings ----------------------------------------------------------------

def test_induced_ordering_basic():
    ind = induced_ordering((4, 9, 4), order=(9, 4))   # 9 drawn before 4
    assert ind.ranks == (1, 0, 1)
    assert ind.precedes(2, 1) and not ind.precedes(1, 2)
    assert not ind.precedes(1, 3) and not ind.precedes(3, 1)   # equal entries
    assert ind.pairs() == frozenset({(2, 1), (2, 3)})
    assert len(ind) == 3


def test_induced_ordering_constant_tuple_is_empty_order():
    ind = induced_ordering((3, 3), order=(3,))
    assert ind.ranks == (0, 0)
    assert ind.pairs() == frozenset()


def test_induced_ordering_validates_order():
    with pytest.raises(ValueError):
        induced_ordering((1, 2), order=(1,))
    with pytest.raises(ValueError):
        induced_ordering((1, 2), order=(1, 2, 3))


def test_induced_ordering_equality():
    assert induced_ordering((1, 5), (1, 5)) == induced_ordering((2, 7), (2, 7))
    assert InducedOrdering((0, 1)) != InducedOrdering((1, 0))


# --- permutation rank -------------------------------------------------------------------

def test_permutation_rank_is_lexicographic_bijection():
    for k in range(1, 5):
        perms = list(itertools.permutations(range(1, k + 1)))
        assert [permutation_rank(p) for p in perms] == list(range(len(perms)))


def test_permutation_rank_rejects_non_permutations():
    with pytest.raises(ValueError):
        permutation_rank((1, 3))
    with pytest.raises(ValueError):
        permutation_rank((1, 1))


# --- seed stream ----------------------------------------------------------------------

def test_seed_stream_deterministic_and_indexed():
    s = SeedStream(123)
    assert s[0] == SeedStream(123)[0]
    assert s[0] != s[1]
    assert s.take(3, offset=2) == [s[2], s[3], s[4]]
    assert SeedStream(123)[5] != SeedStream(124)[5]
    assert all(0 <= s[i] < 2 ** 64 for i in range(10))


def test_seed_stream_seeds_lead_to_distinct_sources():
    s = SeedStream(0)
    values = {HierarchicalRandomSource(s[i]).xi((1,)) for i in range(50)}
    assert len(values) == 50

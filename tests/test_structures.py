"""Core structure type: construction, relabeling, isomorphism, serialization."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_structures, naive_restrict, random_structure
from relex import (Injection, LazyStructure, Signature, Structure, canonical_form, deserialize,
                   dump_structure, is_isomorphic, load_structure, relabel,
                   restrict, serialize)

GRAPH = Signature((("E", 2),))
MIXED = Signature((("P", 1), ("R", 3)))
PULL_BACK_SIGNATURES = (GRAPH, Signature((("P", 1),)), Signature((("R", 3),)), MIXED)


# --- Signature ---------------------------------------------------------------

def test_signature_accessors():
    sig = Signature((("P", 1), ("E", 2)))
    assert sig.names() == ("P", "E")
    assert sig.arity("E") == 2
    assert sig.max_arity() == 2
    assert "P" in sig and "Q" not in sig
    assert len(sig) == 2
    assert list(sig) == [("P", 1), ("E", 2)]


def test_signature_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Signature((("E", 2), ("E", 3)))
    with pytest.raises(ValueError):
        Signature((("E", 0),))
    with pytest.raises(ValueError):
        Signature((("", 1),))


def test_signature_equality_is_order_sensitive():
    a = Signature((("P", 1), ("E", 2)))
    b = Signature((("E", 2), ("P", 1)))
    assert a != b
    assert a == Signature((("P", 1), ("E", 2)))
    assert hash(a) == hash(Signature((("P", 1), ("E", 2))))


# --- Structure ---------------------------------------------------------------

def test_structure_stores_sorted_sets():
    s = Structure(GRAPH, 3, {"E": [(2, 1), (1, 2), (2, 1)]})
    assert s.tuples("E") == ((1, 2), (2, 1))
    assert s.has("E", (1, 2)) and not s.has("E", (1, 3))
    assert list(s.universe()) == [1, 2, 3]


def test_structure_validates_tuples():
    with pytest.raises(ValueError):
        Structure(GRAPH, 2, {"E": [(1, 2, 3)]})       # wrong arity
    with pytest.raises(ValueError):
        Structure(GRAPH, 2, {"E": [(0, 1)]})          # below universe
    with pytest.raises(ValueError):
        Structure(GRAPH, 2, {"E": [(1, 3)]})          # above universe
    with pytest.raises(ValueError):
        Structure(GRAPH, 2, {"F": [(1, 2)]})          # undeclared relation
    with pytest.raises(ValueError):
        Structure(GRAPH, -1)


def test_structure_equality_and_hash():
    a = Structure(GRAPH, 2, {"E": [(1, 2)]})
    b = Structure(GRAPH, 2, {"E": [(1, 2)]})
    c = Structure(GRAPH, 2, {"E": [(2, 1)]})
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


@st.composite
def _signature_and_relations(draw):
    """Int tuples in range under some of the signature's names, in any order,
    with repeats."""
    signature = draw(st.sampled_from(PULL_BACK_SIGNATURES + (Signature(()),)))
    n = draw(st.integers(0, 4))
    relations = {}
    for name, arity in signature:
        if n and draw(st.booleans()):
            cell = st.tuples(*[st.integers(1, n)] * arity)
            relations[name] = draw(st.lists(cell, max_size=12))
    return signature, n, relations


@settings(max_examples=150, deadline=None)
@given(_signature_and_relations())
def test_trusted_construction_equals_checked_construction(case):
    signature, n, relations = case
    checked = Structure(signature, n, relations)
    trusted = Structure._trusted(signature, n, relations)
    assert trusted == checked and checked == trusted
    assert hash(trusted) == hash(checked) == hash(trusted)
    assert trusted.key() == checked.key()
    assert trusted.relation_sets() == checked.relation_sets()
    assert all(trusted.tuples(name) == checked.tuples(name) for name in signature.names())


def test_empty_signature_structure():
    s = Structure(Signature(()), 4)
    assert s.n == 4
    assert deserialize(serialize(s)) == s


# --- Injection ---------------------------------------------------------------

def test_injection_basics():
    phi = Injection({1: 3, 2: 5})
    assert phi(1) == 3 and phi(2) == 5
    assert phi.domain == (1, 2)
    assert phi.image() == frozenset({3, 5})
    assert phi.image_sequence() == (3, 5)
    assert phi.apply((2, 1, 1)) == (5, 3, 3)


def test_injection_rejects_non_injective_and_non_positive():
    with pytest.raises(ValueError):
        Injection({1: 2, 3: 2})
    with pytest.raises(ValueError):
        Injection({0: 1})
    with pytest.raises(ValueError):
        Injection({1: 0})


def test_injection_compose_and_inverse():
    inner = Injection({1: 2, 2: 4})
    outer = Injection({2: 7, 4: 9, 5: 1})
    comp = outer.compose(inner)
    assert comp(1) == 7 and comp(2) == 9
    inv = comp.inverse()
    assert inv(7) == 1 and inv(9) == 2
    assert Injection.from_sequence((4, 2, 7)).items() == [(1, 4), (2, 2), (3, 7)]
    ident = Injection.identity((3, 1))
    assert ident(1) == 1 and ident(3) == 3


# --- relabel / restrict --------------------------------------------------------

def test_relabel_matches_direct_membership():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        s = random_structure(rng, MIXED, n)
        k = rng.randint(1, n)
        domain = rng.sample(range(1, 8), k)
        image = rng.sample(range(1, n + 1), k)
        phi = Injection(dict(zip(domain, image)))
        result, index_map = relabel(s, phi)
        assert result.n == k
        assert index_map.image_sequence() == tuple(sorted(domain))
        for name, arity in MIXED:
            for tup in itertools.product(range(1, k + 1), repeat=arity):
                expected = s.has(name, tuple(phi(index_map(c)) for c in tup))
                assert result.has(name, tup) == expected


def test_relabel_rejects_image_outside_universe():
    s = Structure(GRAPH, 2, {"E": [(1, 2)]})
    with pytest.raises(ValueError):
        relabel(s, Injection({1: 1, 2: 3}))


def test_restrict_reindexes_increasing():
    s = Structure(GRAPH, 4, {"E": [(2, 4), (4, 2), (1, 2), (2, 1)]})
    r = restrict(s, {4, 2})
    assert r.n == 2
    assert r.tuples("E") == ((1, 2), (2, 1))   # 2 -> 1, 4 -> 2
    assert restrict(s, range(1, 5)) == s
    assert restrict(s, ()).n == 0


def test_restrict_names_the_element_outside_the_universe():
    s = Structure(GRAPH, 5, {"E": [(1, 2)]})
    with pytest.raises(ValueError, match=r"subset element 7 lies outside the universe \[1, 5\]"):
        restrict(s, {2, 7})
    with pytest.raises(ValueError, match=r"subset element 0 lies outside the universe \[1, 5\]"):
        restrict(s, [0, 3])


def test_restrict_reads_a_range_as_its_sorted_subset():
    s = Structure(GRAPH, 5, {"E": [(1, 2), (3, 5), (4, 2)]})
    for subset, same in ((range(2, 5), [4, 2, 3]), (range(1, 6, 2), {5, 1, 3}),
                         (range(5, 0, -2), [1, 3, 5]), (range(3, 3), ())):
        assert restrict(s, subset) is restrict(s, same)
        assert restrict(s, subset) == naive_restrict(s, sorted(same))
    for bad, x in ((range(0, 3), 0), (range(4, 7), 6)):
        with pytest.raises(ValueError, match=rf"subset element {x} lies outside"):
            restrict(s, bad)


def test_restrict_and_relabel_match_naive_pull_back():
    rng = random.Random(8)
    for trial in range(60):
        signature = PULL_BACK_SIGNATURES[trial % len(PULL_BACK_SIGNATURES)]
        n = rng.randint(0, 6)
        s = random_structure(rng, signature, n, density=rng.random())
        subset = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        first = restrict(s, subset)
        assert first == naive_restrict(s, subset)
        hit = restrict(s, sorted(subset, reverse=True))
        assert hit is first and hit == naive_restrict(s, subset)
        k = rng.randint(0, n)
        phi = Injection(dict(zip(rng.sample(range(1, 9), k), rng.sample(range(1, n + 1), k))))
        for source in (s, hit):   # a fresh structure, then a memoized restriction
            if max(phi.image(), default=0) > source.n:
                continue
            pulled, index_map = relabel(source, phi)
            assert pulled == naive_restrict(source, phi.image_sequence())
            assert index_map.image_sequence() == phi.domain


def test_restricting_to_the_whole_universe_returns_the_structure_itself():
    rng = random.Random(5)
    s = random_structure(rng, MIXED, 4)
    copy = Structure(MIXED, 4, s.relation_sets())
    key, digest = s.key(), hash(s)
    for whole in (range(1, 5), [4, 2, 3, 1, 2], {1, 2, 3, 4}, (1, 2, 3, 4)):
        assert restrict(s, whole) is s
    # nothing is memoized for it, so the structure holds no reference to itself
    assert s._restrictions is None
    assert s == copy and hash(s) == digest == hash(copy) and s.key() == key == copy.key()
    assert restrict(s, [1, 2, 4]) == naive_restrict(s, [1, 2, 4])
    assert all(r is not s for r in s._restrictions.values())
    empty = Structure(MIXED, 0)
    assert restrict(empty, ()) is empty and restrict(empty, range(1, 1)) is empty
    # an oracle's largest segment is served as the structure its builder made
    oracle = LazyStructure(GRAPH, lambda m: Structure(GRAPH, m, {"E": [(1, m)]}))
    assert oracle.initial_segment(3) is oracle._segment
    assert oracle.initial_segment(2) == Structure(GRAPH, 2)
    with pytest.raises(ValueError, match="outside the universe"):
        restrict(s, [0, 1, 2, 3])


def test_memoized_restriction_equals_and_hashes_like_a_fresh_one():
    rng = random.Random(3)
    s = random_structure(rng, MIXED, 6)
    memoized = restrict(s, {1, 3, 4, 6})
    assert restrict(s, (6, 4, 3, 1)) is memoized
    fresh = restrict(Structure(MIXED, 6, s.relation_sets()), {1, 3, 4, 6})
    assert fresh is not memoized
    assert fresh == memoized and hash(fresh) == hash(memoized)
    assert fresh.key() == memoized.key()


@st.composite
def _structure_injection_subset(draw):
    signature = draw(st.sampled_from(PULL_BACK_SIGNATURES))
    n = draw(st.integers(0, 5))
    cells = [(name, tup) for name, arity in signature
             for tup in itertools.product(range(1, n + 1), repeat=arity)]
    chosen = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    relations = {name: [] for name in signature.names()}
    for keep, (name, tup) in zip(chosen, cells):
        if keep:
            relations[name].append(tup)
    k = draw(st.integers(0, n))
    domain = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k, unique=True))
    images = draw(st.permutations(range(1, n + 1)))[:k]
    part = draw(st.sets(st.sampled_from(domain))) if domain else set()
    return Structure(signature, n, relations), Injection(dict(zip(domain, images))), part


@settings(max_examples=150, deadline=None)
@given(_structure_injection_subset())
def test_restrict_and_relabel_commute(case):
    """Restricting a pull-back to the indices of T is the pull-back along phi on T."""
    s, phi, part = case
    pulled, index_map = relabel(s, phi)
    indices = [i for i, d in index_map.items() if d in part]
    along_part, _ = relabel(s, Injection({d: phi(d) for d in part}))
    assert restrict(pulled, indices) == along_part
    # relabeling the restriction to the image of phi gives the same pull-back
    image = sorted(phi.image())
    inner = Injection({d: image.index(phi(d)) + 1 for d in phi.domain})
    assert relabel(restrict(s, image), inner)[0] == pulled


# --- isomorphism and canonical forms -------------------------------------------

def test_is_isomorphic_returns_valid_witness():
    a = Structure(GRAPH, 3, {"E": [(1, 2), (2, 1)]})
    b = Structure(GRAPH, 3, {"E": [(2, 3), (3, 2)]})
    phi = is_isomorphic(a, b)
    assert phi is not None
    for i, j in itertools.product(range(1, 4), repeat=2):
        assert a.has("E", (i, j)) == b.has("E", (phi(i), phi(j)))


def test_is_isomorphic_distinguishes():
    path = Structure(GRAPH, 3, {"E": [(1, 2), (2, 1), (2, 3), (3, 2)]})
    triangle = Structure(GRAPH, 3, {"E": [(i, j) for i in range(1, 4)
                                          for j in range(1, 4) if i != j]})
    assert is_isomorphic(path, triangle) is None
    assert is_isomorphic(path, Structure(GRAPH, 4)) is None


def test_canonical_form_classifies_exactly_like_isomorphism():
    structures = all_structures(GRAPH, 3)
    assert len(structures) == 2 ** 9
    rng = random.Random(5)
    pool = rng.sample(structures, 60)
    for a in pool[:20]:
        for b in pool[20:40]:
            same = canonical_form(a) == canonical_form(b)
            assert same == (is_isomorphic(a, b) is not None)


def test_canonical_form_is_a_fixed_point_and_isomorphic_to_input():
    rng = random.Random(7)
    for _ in range(20):
        s = random_structure(rng, MIXED, rng.randint(1, 4))
        c = canonical_form(s)
        assert is_isomorphic(s, c) is not None
        assert canonical_form(c) == c


@st.composite
def _structure_and_permutation(draw):
    """A structure on at most 6 points (a random set of in-range tuples) and a
    permutation of its universe."""
    signature = draw(st.sampled_from(PULL_BACK_SIGNATURES + (Signature(()),)))
    n = draw(st.integers(0, 6))
    relations = {name: draw(st.lists(st.tuples(*[st.integers(1, n)] * arity), max_size=16))
                 if n else [] for name, arity in signature}
    return Structure(signature, n, relations), draw(st.permutations(range(1, n + 1)))


@settings(max_examples=100, deadline=None)
@given(_structure_and_permutation())
def test_canonical_form_is_unchanged_by_a_permutation(case):
    s, perm = case
    permuted = Structure(s.signature, s.n,
                         {name: [tuple(perm[c - 1] for c in tup) for tup in s.tuples(name)]
                          for name in s.signature.names()})
    assert canonical_form(permuted) == canonical_form(s)
    assert canonical_form(permuted).key() == canonical_form(s).key()


# --- serialization ---------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(_structure_and_permutation())
def test_serialize_round_trips_with_equal_key(case):
    s, _ = case
    back = deserialize(serialize(s))
    assert back == s and hash(back) == hash(s)
    assert back.key() == s.key()


def test_serialize_round_trip_random():
    rng = random.Random(3)
    for _ in range(30):
        s = random_structure(rng, MIXED, rng.randint(0, 4))
        assert deserialize(serialize(s)) == s


def test_serialize_is_canonical_json():
    s = Structure(GRAPH, 2, {"E": [(2, 1), (1, 2)]})
    text = serialize(s)
    assert json.loads(text) == {
        "universe": 2,
        "signature": [{"name": "E", "arity": 2}],
        "relations": {"E": [[1, 2], [2, 1]]},
    }
    assert " " not in text


def test_deserialize_rejects_malformed():
    with pytest.raises(ValueError):
        deserialize("not json")
    with pytest.raises(ValueError):
        deserialize("[1,2]")
    with pytest.raises(ValueError):
        deserialize('{"universe": 2}')


def test_file_round_trip(tmp_path):
    s = Structure(MIXED, 3, {"P": [(2,)], "R": [(1, 2, 3)]})
    path = str(tmp_path / "s.json")
    dump_structure(s, path)
    assert load_structure(path) == s

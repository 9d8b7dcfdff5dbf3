"""Embedding enumeration against a naive all-injections oracle, plus the
lazy restriction oracle and the greedy least-image embedding."""

import gc
import random

import pytest

from helpers import injection_images, naive_embeddings, random_graph, random_structure
from relex import (Injection, LazyStructure, NoEmbeddingError, Signature,
                   Structure, automorphisms, embedding_exists,
                   enumerate_embeddings, natural_embedding, restrict)
from relex.amalgamation import make_builtin_class

GRAPH = Signature((("E", 2),))


def _graph(n, edges):
    sym = [(a, b) for a, b in edges] + [(b, a) for a, b in edges]
    return Structure(GRAPH, n, {"E": sym})


# --- enumeration -----------------------------------------------------------------

def test_matches_naive_oracle_on_random_pairs():
    rng = random.Random(2026)
    sig = Signature((("P", 1), ("E", 2)))
    for _ in range(120):
        s = random_structure(rng, sig, rng.randint(1, 3), density=rng.random())
        t = random_structure(rng, sig, rng.randint(1, 5), density=rng.random())
        assert injection_images(enumerate_embeddings(s, t)) == naive_embeddings(s, t)


def test_embeddings_preserve_and_reflect():
    rng = random.Random(8)
    s = random_graph(rng, 3)
    t = random_graph(rng, 6)
    for phi in enumerate_embeddings(s, t):
        for i in range(1, 4):
            for j in range(1, 4):
                assert s.has("E", (i, j)) == t.has("E", (phi(i), phi(j)))


def test_output_is_lexicographically_ordered_and_duplicate_free():
    s = Structure(GRAPH, 2)
    t = Structure(GRAPH, 4)
    images = [phi.image_sequence() for phi in enumerate_embeddings(s, t)]
    assert images == sorted(images)
    assert len(images) == len(set(images)) == 12   # all injections, empty graphs


def test_known_counts():
    k3 = _graph(3, [(1, 2), (1, 3), (2, 3)])
    p3 = _graph(3, [(1, 2), (2, 3)])
    edge = _graph(2, [(1, 2)])
    assert len(automorphisms(k3)) == 6
    assert len(automorphisms(p3)) == 2
    assert len(enumerate_embeddings(edge, k3)) == 6
    assert len(enumerate_embeddings(edge, p3)) == 4
    assert not embedding_exists(k3, p3)
    assert embedding_exists(p3, _graph(4, [(1, 2), (2, 3), (3, 4)]))


def test_enumeration_leaves_no_reference_cycles():
    s, t = _graph(2, [(1, 2)]), _graph(4, [(1, 2), (2, 3), (3, 4)])
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            enumerate_embeddings(s, t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_equivalence_enumeration_leaves_no_reference_cycles():
    # the set partitions behind it come from a loop, not a self-calling closure
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            make_builtin_class("equivalence").enumerate(4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_empty_structure_embeds_once():
    empty = Structure(GRAPH, 0)
    assert [phi.items() for phi in enumerate_embeddings(empty, _graph(3, []))] == [[]]
    assert enumerate_embeddings(_graph(1, []), empty) == []


def test_signature_mismatch_yields_nothing():
    s = Structure(Signature((("F", 2),)), 1)
    t = Structure(GRAPH, 3)
    assert enumerate_embeddings(s, t) == []


# --- LazyStructure ----------------------------------------------------------------

def test_lazy_structure_serves_segments_and_restrictions():
    def builder(m):
        return Structure(GRAPH, m, {"E": [(i, j) for i in range(1, m + 1)
                                          for j in range(1, m + 1)
                                          if abs(i - j) == 1]})
    lazy = LazyStructure(GRAPH, builder)
    seg5 = lazy.initial_segment(5)
    assert seg5.n == 5 and seg5.has("E", (4, 5))
    assert lazy.initial_segment(2) == builder(2)
    r = lazy.restrict_to({1, 3, 4})
    assert r.n == 3
    assert r.has("E", (2, 3)) and not r.has("E", (1, 2))   # 3-4 adjacent, 1-3 not
    assert lazy.restrict_to(()).n == 0


def test_lazy_structure_hands_out_one_instance_per_segment():
    lazy = LazyStructure(GRAPH, lambda m: _graph(m, [(i, i + 1) for i in range(1, m)]))
    assert lazy.initial_segment(6) is lazy.initial_segment(6)
    assert lazy.initial_segment(4) is lazy.initial_segment(4)
    assert lazy.restrict_to({2, 5}) is lazy.restrict_to([5, 2])


def test_lazy_structure_serves_no_initial_segment_of_a_replaced_segment():
    built = []

    def builder(m):
        built.append(_graph(m, [(i, i + 1) for i in range(1, m)]))
        return built[-1]

    lazy = LazyStructure(GRAPH, builder)
    lazy.initial_segment(4)
    old = [lazy.initial_segment(n) for n in range(5)]
    assert len(built) == 1
    lazy.restrict_to({7})   # grows the segment to [1, 7]
    for n in range(5):
        view = lazy.initial_segment(n)
        assert view is restrict(built[-1], range(1, n + 1))
        assert view == old[n] and view is not old[n]
    lazy.initial_segment(9)
    assert lazy.initial_segment(6) is restrict(built[-1], range(1, 7))
    assert len(built) == 3


def test_lazy_structure_rejects_inconsistent_builder():
    def builder(m):
        # membership of (1,2) flips with the segment size: not projective
        edges = [(1, 2), (2, 1)] if m % 2 == 0 else []
        return Structure(GRAPH, m, {"E": [e for e in edges if max(e) <= m]})
    lazy = LazyStructure(GRAPH, builder)
    lazy.initial_segment(2)
    with pytest.raises(ValueError):
        lazy.initial_segment(3)


def test_lazy_structure_rejects_wrong_size_or_signature():
    lazy = LazyStructure(GRAPH, lambda m: Structure(GRAPH, m + 1))
    with pytest.raises(ValueError):
        lazy.initial_segment(2)


# --- natural embedding ---------------------------------------------------------------

def _evens_oracle():
    sig = Signature((("P", 1),))
    return LazyStructure(
        sig, lambda m: Structure(sig, m, {"P": [(i,) for i in range(2, m + 1, 2)]}))


def test_natural_embedding_is_greedy_least():
    sig = Signature((("P", 1),))
    marked = Structure(sig, 2, {"P": [(1,)]})        # P(1), not P(2)
    phi = natural_embedding(marked, _evens_oracle(), bound=10)
    # least marked point is 2, then least unmarked unused is 1
    assert phi.image_sequence() == (2, 1)
    unmarked2 = Structure(sig, 2)
    assert natural_embedding(unmarked2, _evens_oracle(), bound=10).image_sequence() == (1, 3)


def test_natural_embedding_result_embeds():
    rng = random.Random(4)
    def builder(m):
        local = random.Random(123)   # frozen reference, independent of m
        edges = []
        for i in range(1, 41):
            for j in range(i + 1, 41):
                if local.random() < 0.5:
                    edges.extend([(i, j), (j, i)])
        return restrict(Structure(GRAPH, 40, {"E": edges}), range(1, m + 1))
    lazy = LazyStructure(GRAPH, builder)
    for _ in range(10):
        s = random_graph(rng, 3)
        phi = natural_embedding(s, lazy, bound=30)
        seg = lazy.initial_segment(max(phi.image_sequence()))
        for i in range(1, 4):
            for j in range(1, 4):
                assert s.has("E", (i, j)) == seg.has("E", (phi(i), phi(j)))


def test_natural_embedding_bound_exhaustion():
    sig = Signature((("P", 1),))
    all_marked = Structure(sig, 3, {"P": [(1,), (2,), (3,)]})
    with pytest.raises(NoEmbeddingError):
        natural_embedding(all_marked, _evens_oracle(), bound=5)   # evens <= 5: only 2, 4
    phi = natural_embedding(all_marked, _evens_oracle(), bound=6)
    assert phi.image_sequence() == (2, 4, 6)


def test_natural_embedding_signature_mismatch():
    with pytest.raises(ValueError):
        natural_embedding(Structure(GRAPH, 1), _evens_oracle(), bound=4)

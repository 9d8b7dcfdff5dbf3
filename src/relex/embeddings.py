"""Embedding enumeration, isomorphism, and the greedy least-image embedding.

An embedding of S into T is an injection of universes under which tuple
membership is preserved and reflected.  Reference structures with infinite
intent are consumed through a restriction oracle handing out initial
segments, so they can be defined lazily by generators; a finite reference
goes through the same oracle type.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional, Union

from .structures import Injection, Signature, Structure, restrict


class NoEmbeddingError(ValueError):
    """No embedding found within the allowed search bound."""


def _partial_ok(s: Structure, t: Structure, images: list[int]) -> bool:
    """Check the prefix map i -> images[i-1] transfers all tuples through the
    newest point both ways."""
    i = len(images)
    placed = range(1, i + 1)
    for name, arity in s.signature:
        for tup in itertools.product(placed, repeat=arity):
            if i in tup and s.has(name, tup) != t.has(name, tuple(images[c - 1] for c in tup)):
                return False
    return True


def iter_embeddings(s: Structure, t: Structure) -> Iterator[Injection]:
    """Yield embeddings of s into t in lexicographic image order.

    Depth first over a list of images and the next candidate image, not
    through a closure that calls itself (a reference cycle).
    """
    if s.signature != t.signature or s.n > t.n:
        return
    images: list[int] = []
    candidate = 1
    while True:
        if len(images) == s.n:
            yield Injection.from_sequence(images)
            candidate = t.n + 1
        if candidate > t.n:
            if not images:
                return
            candidate = images.pop() + 1
        elif candidate in images:
            candidate += 1
        else:
            images.append(candidate)
            candidate = 1 if _partial_ok(s, t, images) else images.pop() + 1


def enumerate_embeddings(s: Structure, t: Structure) -> list[Injection]:
    """All embeddings of s into t, deterministically ordered.

    Exhaustive backtracking; candidate images are tried in increasing
    order, so the output order is the lexicographic order of image
    sequences.
    """
    return list(iter_embeddings(s, t))


def embedding_exists(s: Structure, t: Structure) -> bool:
    return next(iter_embeddings(s, t), None) is not None


def is_isomorphic(a: Structure, b: Structure) -> Optional[Injection]:
    """An isomorphism of a onto b (the first embedding found), or None."""
    if a.n != b.n:
        return None
    return next(iter_embeddings(a, b), None)


def automorphisms(s: Structure) -> list[Injection]:
    """The automorphism group of s (all self-embeddings)."""
    return enumerate_embeddings(s, s)


class LazyStructure:
    """Restriction oracle over a structure defined on all of [1, inf).

    Wraps a builder n -> structure on [1, n].  Memoizes the largest segment
    queried and serves smaller segments by restriction, verifying along the
    way that the builder is consistent (each new segment must extend the
    previous one).  Restrictions are memoized on that largest segment, so
    repeated queries return one instance until a larger segment replaces it.
    """

    def __init__(self, signature: Signature, builder: Callable[[int], Structure]):
        self.signature = signature
        self._builder = builder
        self._segment: Optional[Structure] = None

    def _grown(self, n: int) -> Structure:
        """The memoized segment, built out to at least [1, n]."""
        if n < 0:
            raise ValueError("segment size must be >= 0")
        if self._segment is None or self._segment.n < n:
            fresh = self._builder(n)
            if fresh.n != n or fresh.signature != self.signature:
                raise ValueError("oracle builder returned a mismatched structure")
            if self._segment is not None:
                old = restrict(fresh, range(1, self._segment.n + 1))
                if old != self._segment:
                    raise ValueError("oracle builder is inconsistent across segment sizes")
            self._segment = fresh
        return self._segment

    def initial_segment(self, n: int) -> Structure:
        return restrict(self._grown(n), range(1, n + 1))

    def restrict_to(self, subset) -> Structure:
        elems = sorted(set(subset))
        return restrict(self._grown(elems[-1] if elems else 0), elems)


Oracle = Union[Structure, LazyStructure]


def ensure_lazy(oracle: Oracle) -> LazyStructure:
    """The reference as a LazyStructure; a finite Structure serves its own
    initial segments and runs out past its size."""
    if isinstance(oracle, LazyStructure):
        return oracle
    if isinstance(oracle, Structure):
        def builder(m: int) -> Structure:
            if m > oracle.n:
                raise ValueError(f"finite reference exhausted at size {oracle.n}")
            return restrict(oracle, range(1, m + 1))
        return LazyStructure(oracle.signature, builder)
    raise TypeError("reference oracle must be a Structure or LazyStructure")


def natural_embedding(s: Structure, oracle: LazyStructure, bound: int) -> Injection:
    """Greedy embedding of s into the oracle's structure.

    Image of point i is the least unused m <= bound such that the prefix map
    still embeds s restricted to [1, i].  Deterministic; raises
    NoEmbeddingError when some point has no candidate within the bound.
    """
    if s.signature != oracle.signature:
        raise ValueError("signature mismatch between structure and oracle")
    if bound < s.n:
        raise NoEmbeddingError(f"bound {bound} below structure size {s.n}")
    images: list[int] = []
    for i in range(1, s.n + 1):
        for m in range(1, bound + 1):
            if m not in images and _partial_ok(
                    s, oracle.initial_segment(max(images + [m])), images + [m]):
                images.append(m)
                break
        else:
            raise NoEmbeddingError(f"no embedding of point {i} within bound {bound}")
    return Injection.from_sequence(images)

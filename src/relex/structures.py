"""Finite relational structures over explicit signatures.

Universes are always initial segments [1, n] of the positive integers.
Structures on other finite label sets are handled by relabeling through an
injection, which re-indexes the domain to [1, |domain|] in increasing order
and reports the index map alongside the result.

All values here are immutable and all operations are pure.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from typing import Iterable, Iterator, Optional


class Signature:
    """Ordered list of relation symbols with arities.

    Names must be unique, arities at least 1.  The empty signature is
    allowed (structures then carry a bare universe).
    """

    __slots__ = ("_symbols", "_arity_by_name", "_names", "_max_arity")

    def __init__(self, symbols: Iterable[tuple[str, int]]):
        syms = tuple((str(name), int(arity)) for name, arity in symbols)
        seen = set()
        for name, arity in syms:
            if not name:
                raise ValueError("relation name must be nonempty")
            if name in seen:
                raise ValueError(f"duplicate relation name {name!r}")
            if arity < 1:
                raise ValueError(f"arity of {name!r} must be >= 1, got {arity}")
            seen.add(name)
        self._symbols = syms
        self._arity_by_name = {name: arity for name, arity in syms}
        self._names = tuple(name for name, _ in syms)
        self._max_arity = max((a for _, a in syms), default=0)

    @property
    def symbols(self) -> tuple[tuple[str, int], ...]:
        return self._symbols

    def arity(self, name: str) -> int:
        try:
            return self._arity_by_name[name]
        except KeyError:
            raise KeyError(f"unknown relation {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return self._names

    def max_arity(self) -> int:
        return self._max_arity

    def __contains__(self, name: object) -> bool:
        return name in self._arity_by_name

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self._symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}/{a}" for n, a in self._symbols)
        return f"Signature({inner})"


EMPTY_SIGNATURE = Signature(())
GRAPH_SIGNATURE = Signature((("E", 2),))
UNARY_SIGNATURE = Signature((("P", 1),))


class Structure:
    """Finite relational structure with universe [1, n].

    Relation contents are sets of tuples, stored sorted for deterministic
    serialization.  Instances are immutable and hashable; equality is
    literal (same signature, same universe size, same tuple sets).
    """

    __slots__ = ("_signature", "_n", "_relations", "_members", "_key", "_hash",
                 "_restrictions")

    def __init__(self, signature: Signature, n: int,
                 relations: dict[str, Iterable[tuple[int, ...]]] | None = None):
        if n < 0:
            raise ValueError(f"universe size must be >= 0, got {n}")
        relations = dict(relations or {})
        for name in relations:
            if name not in signature:
                raise ValueError(f"relation {name!r} not in signature")
        checked = {}
        for name, arity in signature:
            tups = frozenset(tuple(map(int, t)) for t in relations.get(name, ()))
            for t in tups:
                if len(t) != arity:
                    raise ValueError(f"tuple {t} has wrong arity for {name!r}/{arity}")
                if t and (min(t) < 1 or max(t) > n):
                    raise ValueError(f"tuple {t} out of universe [1,{n}]")
            checked[name] = tups
        self._fill(signature, n, checked)

    @classmethod
    def _trusted(cls, signature: Signature, n: int,
                 relations: dict[str, Iterable[tuple[int, ...]]]) -> "Structure":
        """`Structure(signature, n, relations)` without the checks, for callers
        whose tuples are already int tuples of the right arity in [1, n]."""
        self = object.__new__(cls)
        self._fill(signature, n, relations)
        return self

    def _fill(self, signature: Signature, n: int,
              relations: dict[str, Iterable[tuple[int, ...]]]) -> None:
        self._signature = signature
        self._n = n
        self._members = {name: frozenset(relations.get(name, ())) for name in signature.names()}
        self._relations = {name: tuple(sorted(tups)) for name, tups in self._members.items()}
        self._key: Optional[str] = None
        self._hash: Optional[int] = None
        self._restrictions: Optional[dict[tuple[int, ...], Structure]] = None

    @property
    def signature(self) -> Signature:
        return self._signature

    @property
    def n(self) -> int:
        return self._n

    def universe(self) -> range:
        return range(1, self._n + 1)

    def tuples(self, name: str) -> tuple[tuple[int, ...], ...]:
        """Contents of one relation, sorted."""
        return self._relations[name]

    def has(self, name: str, tup: tuple[int, ...]) -> bool:
        return tup in self._members[name]

    def relation_sets(self) -> dict[str, frozenset[tuple[int, ...]]]:
        return dict(self._members)

    def key(self) -> str:
        """Deterministic compact serialization, usable as a dict key."""
        if self._key is None:
            self._key = serialize(self)
        return self._key

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Structure)
                and self._signature == other._signature
                and self._n == other._n
                and self._relations == other._relations)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._signature, self._n, tuple(self._relations.values())))
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={list(self._relations[name])}"
                          for name in self._signature.names())
        return f"Structure(n={self._n}, {parts})" if parts else f"Structure(n={self._n})"


class Injection:
    """Injective map between finite sets of positive integers."""

    __slots__ = ("_mapping", "_domain")

    def __init__(self, mapping: dict[int, int]):
        m = {int(k): int(v) for k, v in mapping.items()}
        if any(k < 1 for k in m) or any(v < 1 for v in m.values()):
            raise ValueError("injection endpoints must be positive integers")
        if len(set(m.values())) != len(m):
            raise ValueError("mapping is not injective")
        self._mapping = m
        self._domain = tuple(sorted(m))

    @classmethod
    def identity(cls, elements: Iterable[int]) -> "Injection":
        return cls({e: e for e in elements})

    @classmethod
    def from_sequence(cls, images: Iterable[int]) -> "Injection":
        """Injection with domain [1, k] sending i to the i-th image."""
        return cls({i: v for i, v in enumerate(images, start=1)})

    @property
    def domain(self) -> tuple[int, ...]:
        return self._domain

    def image(self) -> frozenset[int]:
        return frozenset(self._mapping.values())

    def image_sequence(self) -> tuple[int, ...]:
        """Images listed in increasing domain order."""
        return tuple(self._mapping[d] for d in self._domain)

    def __call__(self, x: int) -> int:
        return self._mapping[x]

    def apply(self, tup: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self._mapping[c] for c in tup)

    def compose(self, inner: "Injection") -> "Injection":
        """self after inner: x -> self(inner(x))."""
        return Injection({x: self._mapping[inner(x)] for x in inner.domain})

    def inverse(self) -> "Injection":
        return Injection({v: k for k, v in self._mapping.items()})

    def items(self) -> list[tuple[int, int]]:
        return [(d, self._mapping[d]) for d in self._domain]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Injection) and self._mapping == other._mapping

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __len__(self) -> int:
        return len(self._mapping)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}->{v}" for k, v in self.items())
        return f"Injection({inner})"


def _pull_back(structure: Structure, images: tuple[int, ...]) -> Structure:
    """The pull-back along i -> images[i-1]: the shared body of relabel and restrict."""
    k = len(images)
    relations = {}
    for name, arity in structure.signature:
        source = structure._members[name]
        relations[name] = [tup for tup, image in zip(
            itertools.product(range(1, k + 1), repeat=arity),
            itertools.product(images, repeat=arity)) if image in source]
    return Structure._trusted(structure.signature, k, relations)


def relabel(structure: Structure, phi: Injection) -> tuple[Structure, Injection]:
    """Pull a structure back along an injection.

    A tuple is in relation R of the result exactly when its phi-image is in
    R of the input.  The result's universe is [1, |domain(phi)|] with the
    domain re-indexed in increasing order; the returned index map sends each
    new index to the domain element it stands for.
    """
    if any(v < 1 or v > structure.n for v in phi.image()):
        raise ValueError("injection image must lie inside the structure's universe")
    return _pull_back(structure, phi.image_sequence()), Injection.from_sequence(phi.domain)


def restrict(structure: Structure, subset: Iterable[int]) -> Structure:
    """Restriction to a subset of the universe, re-indexed to [1, |subset|].

    The whole universe gives the structure itself; any other subset is
    memoized on the structure by sorted subset: a repeated restriction
    returns the stored instance, kept for as long as the structure lives.
    A range of step 1 is its own sorted subset, read without a sort.
    """
    elems = (tuple(subset) if isinstance(subset, range) and subset.step == 1
             else tuple(sorted(set(int(x) for x in subset))))
    if len(elems) == structure.n and elems == tuple(range(1, structure.n + 1)):
        return structure
    memo = structure._restrictions
    if memo is None:
        memo = structure._restrictions = {}
    if elems not in memo:
        for x in elems[:1] + elems[-1:]:
            if x < 1 or x > structure.n:
                raise ValueError(
                    f"subset element {x} lies outside the universe [1, {structure.n}]")
        memo[elems] = _pull_back(structure, elems)
    return memo[elems]


def _relabel_by_permutation(structure: Structure, perm: tuple[int, ...]) -> Structure:
    """Relabel so that old element i becomes perm[i-1]."""
    relations = {}
    for name in structure.signature.names():
        relations[name] = [tuple(perm[c - 1] for c in tup) for tup in structure.tuples(name)]
    return Structure(structure.signature, structure.n, relations)


@lru_cache(maxsize=65536)
def _canonical_cached(signature: Signature, n: int,
                      rels: tuple[tuple[tuple[int, ...], ...], ...],
                      tup: tuple[int, ...]) -> tuple[Structure, tuple[int, ...]]:
    """The relabeling of the structure, and the image of `tup` under it, that
    minimize (serialization, relabeled tuple) over all n! relabelings.

    The one canonical search, shared by `canonical_form` and
    `rules.context_key`.
    """
    base = Structure(signature, n,
                     {name: rels[i] for i, (name, _) in enumerate(signature)})
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        cand = _relabel_by_permutation(base, perm)
        score = (cand.key(), tuple(perm[c - 1] for c in tup))
        if best is None or score < best[0]:
            best = (score, cand)
    return best[1], best[0][1]


def canonical_form(structure: Structure) -> Structure:
    """Canonical representative of the isomorphism class.

    Minimizes the serialized form over all relabelings of the universe, so
    two structures are isomorphic exactly when their canonical forms are
    equal.  Cost grows as n!, intended for n <= 8.
    """
    rels = tuple(structure.tuples(name) for name in structure.signature.names())
    return _canonical_cached(structure.signature, structure.n, rels, ())[0]


def serialize(structure: Structure) -> str:
    """Canonical JSON text: sorted keys, sorted tuples, no whitespace."""
    doc = {
        "universe": structure.n,
        "signature": [{"name": name, "arity": arity} for name, arity in structure.signature],
        "relations": {name: [list(t) for t in structure.tuples(name)]
                      for name in structure.signature.names()},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def deserialize(text: str) -> Structure:
    """Inverse of serialize; round-trips bit-exactly."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed structure JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("structure JSON must be an object")
    for field in ("universe", "signature", "relations"):
        if field not in doc:
            raise ValueError(f"structure JSON missing {field!r}")
    signature = Signature((entry["name"], entry["arity"]) for entry in doc["signature"])
    relations = {name: [tuple(t) for t in tups] for name, tups in doc["relations"].items()}
    return Structure(signature, doc["universe"], relations)


def load_structure(path: str) -> Structure:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


def dump_structure(structure: Structure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(structure) + "\n")

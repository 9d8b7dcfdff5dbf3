"""Finite classes of structures and amalgamation-property checkers.

A FiniteClass packages a signature, a membership predicate, and a
deterministic enumerator of members on [1, n], guarded by a size cap.
On top of that sit exhaustive checkers for the joint embedding property,
the disjoint amalgamation property (DAP), and its n-ary strengthening
(n-DAP): every pairwise-compatible family of members on the coordinate
hyperplanes of [1, n] must extend to a member on [1, n].

A class may declare its locality L: the largest size of a minimal
non-member, so a structure is a member exactly when its substructures on at
most L points are.  Above max(arity, L) every amalgam is forced and is a
member: a family on n > max(arity, L) points leaves no tuple free (none can
range over all n points), and every L-point part of the union lies inside
one slot.  So n-DAP holds there without search, "n-DAP for every n"
reduces to the finitely many n up to max(arity, L), and a frame-wise step
above that size adds nothing.  Unknown locality (None) keeps every search
exhaustive.

One completion search, `_completions`, serves n-DAP, DAP, `amalgams` and
frame-wise steps: the members that hold a partial structure off a set of
free supports (entry sets of tuples), decided in colex order from the
amalgam tables, each part on at most max(arity, L) points checked once
decided, the whole universe last.  Its partial structure has one format, a
set of (name, tuple) pairs: the union of the located slot members, and, as
a frozenset, its own key in the amalgam table.  Only `_partial` turns
pairs into relation sets, once per search.

JEP and DAP ask one question of two members: does their layout over a
shared part complete in the class (`_dap_instance_holds`)?  One overlap
search, `_overlaps`, lists the shared parts; JEP needs some of them to
complete and DAP's direct route every one.  No host is enumerated.

The builtin classes are one table, `_BUILTINS`.  parity3's members are
built from graphs rather than filtered from all 3-hypergraphs.

All checkers are exact searches; worst cases are exponential and guarded
by the cap.  All classes here are closed under isomorphism and
substructure, which the DAP layout argument relies on.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .embeddings import iter_embeddings
from .structures import (EMPTY_SIGNATURE, GRAPH_SIGNATURE, UNARY_SIGNATURE,
                         Injection, Signature, Structure, canonical_form,
                         restrict, serialize)
from .theory import Theory, enumerate_models, satisfies


class CapExceededError(ValueError):
    """Requested enumeration is beyond the configured budget."""


_MAX_MEMBERS = 1 << 18
_DEFAULT_CAP = 6  # largest enumerated size unless a class is built with its own cap


class FiniteClass:
    """A class of finite structures with decidable membership.

    `predicate` must be isomorphism-invariant; `enumerator(n)` must yield
    exactly the members with universe [1, n].  Enumeration is memoized and
    returned in serialization order.

    `locality`, when known, is the largest size of a minimal non-member
    (see the module docstring); None means unknown.  It is a property of
    the class, and an understated value makes checks report false verdicts.
    """

    def __init__(self, name: str, signature: Signature,
                 predicate: Callable[[Structure], bool],
                 enumerator: Callable[[int], Iterable[Structure]],
                 cap: int = _DEFAULT_CAP, locality: Optional[int] = None):
        if locality is not None and locality < 0:
            raise ValueError("locality must be >= 0")
        self.name = name
        self.signature = signature
        self._predicate = predicate
        self._enumerator = enumerator
        self.cap = cap
        self.locality = locality
        self._enum_cache: dict[int, tuple[Structure, ...]] = {}
        # (k, frozenset of (name, tuple) pairs) -> AmalgamClasses for
        # k <= max arity; see _amalgam_classes
        self._amalgam_cache: dict = {}
        # the frame-wise steps and trie for every size; see samplers._step_plan
        self._step_plans = None

    @property
    def forced_above(self) -> Optional[int]:
        """max(arity, locality): above this size every amalgam is forced and
        is a member; None when the locality is unknown."""
        if self.locality is None:
            return None
        return max(self.signature.max_arity(), self.locality)

    def contains(self, structure: Structure) -> bool:
        if structure.signature != self.signature:
            return False
        return self._predicate(structure)

    def enumerate(self, n: int) -> tuple[Structure, ...]:
        if n < 0:
            raise ValueError("n must be >= 0")
        if n > self.cap:
            raise CapExceededError(f"n={n} exceeds cap {self.cap} for class {self.name!r}")
        if n not in self._enum_cache:
            members = sorted(self._enumerator(n), key=lambda s: s.key())
            self._enum_cache[n] = tuple(members)
        return self._enum_cache[n]

    def __repr__(self) -> str:
        return f"FiniteClass({self.name!r})"


# --- builtin class catalog ---------------------------------------------------

def _guard_count(count: int, name: str) -> None:
    if count > _MAX_MEMBERS:
        raise CapExceededError(
            f"enumerating {count} members of {name!r} is over budget")


_TRIPLES = Signature((("R", 3),))


def _uniform_ok(s: Structure) -> bool:
    """The signature's one relation is a k-uniform hypergraph: every tuple has
    k distinct entries and holds in every order."""
    (name, k), = s.signature
    rel = s.relation_sets()[name]
    return all(len(set(tup)) == k and all(perm in rel for perm in itertools.permutations(tup))
               for tup in rel)


def _enumerate_uniform(label: str, signature: Signature, n: int):
    """Every k-uniform hypergraph on [1, n] over the signature's one relation."""
    (name, k), = signature
    supports = list(itertools.combinations(range(1, n + 1), k))
    _guard_count(1 << len(supports), label)
    for bits in itertools.product((0, 1), repeat=len(supports)):
        yield Structure._trusted(signature, n, {name: [
            perm for support, bit in zip(supports, bits) if bit
            for perm in itertools.permutations(support)]})


def _enumerate_digraphs(n: int):
    arcs = list(itertools.permutations(range(1, n + 1), 2))
    _guard_count(1 << len(arcs), "digraphs")
    for bits in itertools.product((0, 1), repeat=len(arcs)):
        chosen = [arc for arc, bit in zip(arcs, bits) if bit]
        yield Structure(GRAPH_SIGNATURE, n, {"E": chosen})


def _digraph_ok(s: Structure) -> bool:
    return all(a != b for a, b in s.relation_sets()["E"])


def _enumerate_tournaments(n: int):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    _guard_count(1 << len(pairs), "tournaments")
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        arcs = [(a, b) if bit else (b, a) for (a, b), bit in zip(pairs, bits)]
        yield Structure(GRAPH_SIGNATURE, n, {"E": arcs})


def _tournament_ok(s: Structure) -> bool:
    rel = s.relation_sets()["E"]
    if any(a == b for a, b in rel):
        return False
    for a, b in itertools.combinations(range(1, s.n + 1), 2):
        if ((a, b) in rel) == ((b, a) in rel):
            return False
    return True


def _set_partitions(n: int, i: int = 1, blocks: tuple = ()):
    """Set partitions of [1, n], blocks by least element, depth first: each
    point goes into every open block, then a new one.  A module-level
    generator: a closure that calls itself would be a reference cycle."""
    if i > n:
        yield list(blocks)
        return
    for j, block in enumerate(blocks):
        yield from _set_partitions(n, i + 1, blocks[:j] + (block + (i,),) + blocks[j + 1:])
    yield from _set_partitions(n, i + 1, blocks + ((i,),))


def _enumerate_equivalences(n: int):
    for partition in _set_partitions(n):
        tuples = []
        for block in partition:
            tuples.extend((x, y) for x in block for y in block)
        yield Structure(GRAPH_SIGNATURE, n, {"E": tuples})


def _equivalence_ok(s: Structure) -> bool:
    rel = s.relation_sets()["E"]
    for x in range(1, s.n + 1):
        if (x, x) not in rel:
            return False
    for x, y in rel:
        if (y, x) not in rel:
            return False
    for x, y in rel:
        for z in range(1, s.n + 1):
            if (y, z) in rel and (x, z) not in rel:
                return False
    return True


def _odd_triples(n: int, edges) -> list[tuple[int, int, int]]:
    """The triples of distinct points of [1, n], in every order, that span an
    odd number of the pairs (x, y), x < y, in `edges`."""
    return [perm for triple in itertools.combinations(range(1, n + 1), 3)
            if sum(pair in edges for pair in itertools.combinations(triple, 2)) % 2
            for perm in itertools.permutations(triple)]


def _parity3_ok(s: Structure) -> bool:
    """A 3-uniform hypergraph in which every 4 points span an even number of triples."""
    rel = s.relation_sets()["R"]
    return _uniform_ok(s) and all(
        sum(triple in rel for triple in itertools.combinations(four, 3)) % 2 == 0
        for four in itertools.combinations(range(1, s.n + 1), 4))


def _enumerate_parity3(n: int):
    """The odd triples of each graph on [1, n] with point 1 isolated: every
    member once, since {1, a, b} is a triple exactly when {a, b} is an edge,
    and the parity of {1, a, b, c} then fixes each triple {a, b, c}."""
    pairs = list(itertools.combinations(range(2, n + 1), 2))
    _guard_count(1 << len(pairs), "parity3")
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = {pair for pair, bit in zip(pairs, bits) if bit}
        yield Structure._trusted(_TRIPLES, n, {"R": _odd_triples(n, edges)})


def _enumerate_subsets(n: int):
    for bits in itertools.product((0, 1), repeat=n):
        yield Structure(UNARY_SIGNATURE, n,
                        {"P": [(i,) for i, b in enumerate(bits, start=1) if b]})


# name: (signature, predicate, enumerator, locality).  The locality is the
# size of the largest minimal non-member: a loop (digraphs); a loop or a
# one-way pair (graphs, tournaments); three points breaking transitivity
# (equivalence); a bad triple (hypergraphs3), or four points spanning an
# odd number of triples (parity3); there is none for subsets and trivial.
_BUILTINS = {
    "graphs": (GRAPH_SIGNATURE, _uniform_ok,
               functools.partial(_enumerate_uniform, "graphs", GRAPH_SIGNATURE), 2),
    "digraphs": (GRAPH_SIGNATURE, _digraph_ok, _enumerate_digraphs, 1),
    "tournaments": (GRAPH_SIGNATURE, _tournament_ok, _enumerate_tournaments, 2),
    "equivalence": (GRAPH_SIGNATURE, _equivalence_ok, _enumerate_equivalences, 3),
    "hypergraphs3": (_TRIPLES, _uniform_ok,
                     functools.partial(_enumerate_uniform, "hypergraphs3", _TRIPLES), 3),
    "parity3": (_TRIPLES, _parity3_ok, _enumerate_parity3, 4),
    "subsets": (UNARY_SIGNATURE, lambda s: True, _enumerate_subsets, 0),
    "trivial": (EMPTY_SIGNATURE, lambda s: True, lambda n: [Structure(EMPTY_SIGNATURE, n)], 0),
}

BUILTIN_CLASS_NAMES = tuple(_BUILTINS)


def k_hypergraphs(k: int, cap: int = _DEFAULT_CAP) -> FiniteClass:
    """Symmetric anti-reflexive k-ary hypergraphs (locality k: one bad tuple)."""
    sig, label = Signature((("R", k),)), f"hypergraphs{k}"
    return FiniteClass(label, sig, _uniform_ok,
                       functools.partial(_enumerate_uniform, label, sig), cap=cap, locality=k)


def make_builtin_class(name: str, cap: int = _DEFAULT_CAP) -> FiniteClass:
    """Fresh instance of a builtin class with a custom enumeration cap."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin class {name!r}")
    signature, predicate, enumerator, locality = _BUILTINS[name]
    return FiniteClass(name, signature, predicate, enumerator, cap=cap, locality=locality)


@functools.lru_cache(maxsize=None)
def builtin_class(name: str) -> FiniteClass:
    """Shared instance of a builtin class (memoized enumerations)."""
    return make_builtin_class(name)


def from_theory(theory: Theory, name: str | None = None, cap: int = _DEFAULT_CAP) -> FiniteClass:
    """The class of finite models of a universal theory.

    Its locality is the largest variable count of any sentence: a structure
    violating a sentence violates it on the at most that many points that
    the variables take.
    """
    label = name or f"theory:{theory.source_name}"
    return FiniteClass(label, theory.signature,
                       lambda s: satisfies(theory, s),
                       lambda n: enumerate_models(theory, n),
                       cap=cap,
                       locality=max((len(s.variables) for s in theory.sentences),
                                    default=0))


# --- located families --------------------------------------------------------

def _located_tuples(member: Structure, elems: list[int]) -> frozenset:
    """The (name, tuple) pairs of a structure on [1, len(elems)], moved onto elems."""
    return frozenset((name, tuple(elems[c - 1] for c in tup))
                     for name in member.signature.names() for tup in member.tuples(name))


def _slot_elements(n: int, i: int) -> list[int]:
    return [x for x in range(1, n + 1) if x != i]


def _overlap(located: frozenset, point: int) -> frozenset:
    """The located pairs whose tuple avoids `point`.

    Slots i and j overlap on [n] minus {i, j}: the part of slot i's member
    there is `_overlap(loc_i, j)`.
    """
    return frozenset(pair for pair in located if point not in pair[1])


def _compatible(loc_a: frozenset, i_a: int, loc_b: frozenset, i_b: int) -> bool:
    """Located structures on [n] minus i_a and [n] minus i_b agree on the overlap."""
    return _overlap(loc_a, i_b) == _overlap(loc_b, i_a)


def _partial(names, pairs) -> dict[str, set]:
    """The (name, tuple) pairs as relation sets: name -> set of tuples."""
    partial: dict[str, set] = {name: set() for name in names}
    for name, tup in pairs:
        partial[name].add(tup)
    return partial


def _completions(klass: FiniteClass, m: int, fixed, supports,
                 first_only: bool = False) -> list[Structure]:
    """The members on [1, m], sorted by key, that hold exactly the `fixed`
    pairs off the free `supports` (entry sets of tuples).  Callers free
    whole supports: n-DAP and the amalgam tables [1, m] alone,
    `_dap_instance_holds` those mixing its two private parts.  The sets of
    `_steps` take their options from the amalgam tables (`_step_classes`);
    [1, m] then tries its assignments in product order, each candidate
    checked whole.  `first_only` returns the first member found, after the
    candidate with every free tuple absent, tried before any set-up."""
    signature = klass.signature
    partial = _partial(signature.names(), fixed)
    if first_only and klass.contains(candidate := Structure._trusted(signature, m, partial)):
        return [candidate]
    free = [(name, tup) for name, arity in signature if arity >= m
            for tup in itertools.product(range(1, m + 1), repeat=arity)
            if len(set(tup)) == m] if tuple(range(1, m + 1)) in supports else []
    below = tuple(s for s in supports if len(s) < m)
    steps = _steps(m, below, klass.forced_above or 0, signature.max_arity()) if below else ()
    decided: dict = {}  # support -> its pairs
    for name, tup in fixed if steps else ():
        decided.setdefault(tuple(sorted(set(tup))), []).append((name, tup))
    found, stack = [], [iter([()])]  # the root's one option: nothing decided
    while stack:
        option = next(stack[-1], None)
        if option is None:
            stack.pop()
            continue
        if len(stack) > 1:
            decided[steps[len(stack) - 2][0]] = option
        if len(stack) <= len(steps):
            points, inner = steps[len(stack) - 1]
            local = {x: i for i, x in enumerate(points, 1)}
            inside = [(name, tuple([local[c] for c in tup]))
                      for sub in inner for name, tup in decided.get(sub, ())]
            stack.append(iter([[(name, tuple([points[c - 1] for c in tup])) for name, tup in new]
                               for new in itertools.chain.from_iterable(
                                   _step_classes(klass, len(points), inside).new_tuples)]))
            continue
        # without steps, the candidate with every free tuple absent was tried above
        for bits in itertools.islice(itertools.product((0, 1), repeat=len(free)),
                                     int(first_only and not steps), None):
            candidate = {name: set(tups) for name, tups in partial.items()}
            for name, tup in itertools.chain(*(decided[points] for points, _ in steps),
                                             itertools.compress(free, bits)):
                candidate[name].add(tup)
            member = Structure._trusted(signature, m, candidate)
            if klass.contains(member):
                if first_only:
                    return [member]
                found.append(member)
    return sorted(found, key=lambda s: s.key())


@functools.lru_cache(maxsize=1024)
def _steps(m: int, supports: tuple, bound: int, max_arity: int) -> tuple:
    """The free `supports` in colex order (largest entry, size, entries), each
    followed by the sets of max_arity + 1 to `bound` points below [1, m] whose
    last support it is; each set with its subsets of at most `max_arity`."""
    supports = sorted(supports, key=lambda s: (s[-1], len(s), s))
    last = {a: max((i for i, s in enumerate(supports) if set(s) <= set(a)), default=None)
            for size in range(max_arity + 1, min(bound, m - 1) + 1)
            for a in itertools.combinations(range(1, m + 1), size)}
    sets = sorted([(i, 0, s) for i, s in enumerate(supports)]
                  + [(i, 1, a) for a, i in last.items() if i is not None])
    return tuple((s, tuple(sub for size in range(1, min(len(s) - 1, max_arity) + 1)
                           for sub in itertools.combinations(s, size))) for _, _, s in sets)


def _complete_partial(klass: FiniteClass, n: int, fixed,
                      first_only: bool = False) -> list[Structure]:
    """All members on [1, n] whose non-surjective pairs are exactly `fixed`."""
    return _completions(klass, n, fixed, [tuple(range(1, n + 1))], first_only)


@dataclass
class AmalgamClasses:
    """Amalgams of one family by isomorphism class; orbit[0] represents each."""
    all_amalgams: list[Structure]
    orbits: list[list[Structure]]
    # per orbit member, its (name, tuple) pairs whose range is all of [1, n]
    # (empty above max arity, where no tuple reaches that range)
    new_tuples: list[list[tuple[tuple[str, tuple[int, ...]], ...]]]


def _step_classes(klass: FiniteClass, k: int, pairs=()) -> AmalgamClasses:
    """The amalgam classes of the partial on [1, k] that the (name, tuple)
    pairs fix: one cache lookup under (k, frozenset(pairs)); a miss goes
    through `_amalgam_classes`."""
    return klass._amalgam_cache.get((k, frozenset(pairs))) or _amalgam_classes(klass, k, pairs)


def _amalgam_classes(klass: FiniteClass, n: int, fixed) -> AmalgamClasses:
    # The key (n, frozenset(fixed)) names the partial once every fixed pair
    # is a non-surjective tuple on [1, n].  Entries are stored only up to max
    # arity, where the keys are finitely many; above it no tuple is free, the
    # single candidate is cheap to rebuild, and caching those partials would
    # grow without bound on long sampling runs.
    arities, points = dict(klass.signature), set(range(1, n + 1))
    for name, tup in fixed:
        if arities.get(name) != len(tup) or not set(tup) < points:
            raise ValueError(f"partial tuple {tup} of {name!r} is not a "
                             f"non-surjective tuple on [1, {n}]")
    cacheable = klass.signature.max_arity() >= n
    if cacheable:
        cache_key = (n, frozenset(fixed))
        cached = klass._amalgam_cache.get(cache_key)
        if cached is not None:
            return cached
    amalgams_list = _complete_partial(klass, n, fixed)
    if len(amalgams_list) <= 1:
        orbits = [[s] for s in amalgams_list]
    else:
        groups: dict[str, list[Structure]] = {}
        for s in amalgams_list:
            groups.setdefault(canonical_form(s).key(), []).append(s)
        # by canonical form, so a class's index names its type wherever the partial's points sit
        orbits = [sorted(group, key=lambda s: s.key()) for _, group in sorted(groups.items())]
    names = klass.signature.names()
    new_tuples = [[tuple((name, tup) for name in names for tup in member.tuples(name)
                         if len(set(tup)) == n) for member in orbit] for orbit in orbits]
    result = AmalgamClasses(amalgams_list, orbits, new_tuples)
    if cacheable:
        klass._amalgam_cache[cache_key] = result
    return result


def amalgams(family: list[Structure], klass: FiniteClass
             ) -> tuple[list[Structure], list[Structure]]:
    """All members on [1, n] extending a pairwise-compatible family, plus one
    representative per isomorphism class (the serialization-minimal element).

    The i-th family member lives on [1, n-1] and stands for the structure on
    [1, n] minus {i}, re-indexed in increasing order.  Both returned lists
    are deterministically ordered.
    """
    n = len(family)
    for i, member in enumerate(family, start=1):
        if member.signature != klass.signature or member.n != n - 1:
            raise ValueError(f"family slot {i} must be a structure on [1, {n - 1}]")
    located = [_located_tuples(member, _slot_elements(n, i))
               for i, member in enumerate(family, start=1)]
    for (i_a, loc_a), (i_b, loc_b) in itertools.combinations(
            enumerate(located, start=1), 2):
        if not _compatible(loc_a, i_a, loc_b, i_b):
            raise ValueError(f"family is not pairwise compatible at slots {i_a}, {i_b}")
    classes = _amalgam_classes(klass, n, frozenset().union(*located))
    return classes.all_amalgams, [orbit[0] for orbit in classes.orbits]


# --- reports -----------------------------------------------------------------

@dataclass
class NdapReport:
    n: int
    holds: bool
    witness_family: Optional[list[Structure]] = None
    # "locality" when n is above max(arity, locality), else "search"
    method: str = "search"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "holds": self.holds,
            "method": self.method,
            "witness_family": None if self.witness_family is None else
                [json.loads(serialize(s)) for s in self.witness_family],
        }


@dataclass
class JepReport:
    bound: int
    holds: bool
    witness_pair: Optional[tuple[Structure, Structure]] = None

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "holds": self.holds,
            "witness_pair": None if self.witness_pair is None else
                [json.loads(serialize(s)) for s in self.witness_pair],
        }


@dataclass
class DapReport:
    bound: int
    holds: bool
    ndap: NdapReport
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "holds": self.holds,
            "ndap": self.ndap.to_json(),
            "counterexample": self.counterexample,
        }


# --- n-DAP -------------------------------------------------------------------

def check_ndap(klass: FiniteClass, n: int) -> NdapReport:
    """n-DAP check: by locality above max(arity, locality), else exhaustive.

    When the class declares its locality and n exceeds max(arity,
    locality), n-DAP holds (see the module docstring) and the report says
    `method="locality"` without enumerating anything.  Otherwise the search
    enumerates every pairwise-compatible family (S_i on [1, n] minus {i})
    depth first, slot by slot, and searches each family for an extending
    member.  Returns the first family with no amalgam as witness, in
    deterministic order (slot members in enumeration order).

    Members are indexed by overlap: at slot k they are bucketed by their
    tuples that avoid each earlier slot's point, so the members compatible
    with the slots already chosen are one dictionary lookup away, in
    enumeration order.  The cost therefore follows the number of
    compatible families, not members^n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > klass.cap:
        raise CapExceededError(f"n={n} exceeds cap {klass.cap}")
    forced_above = klass.forced_above
    if forced_above is not None and n > forced_above:
        return NdapReport(n=n, holds=True, method="locality")
    members = klass.enumerate(n - 1)
    # located[k-1][m]: member m's pairs on [1, n] minus {k};
    # overlaps[k-1][m][j-1]: for j != k, the id of the part of them that
    # avoids point j.  Members share few distinct overlaps, so ids keep the
    # index small.
    located = [[_located_tuples(member, _slot_elements(n, k)) for member in members]
               for k in range(1, n + 1)]
    overlap_ids: dict[frozenset, int] = {}
    overlaps = [[[overlap_ids.setdefault(_overlap(loc, j), len(overlap_ids))
                  if j != k else None for j in range(1, n + 1)] for loc in slot]
                for k, slot in enumerate(located, start=1)]
    # buckets[k-1]: overlap with slots 1..k-1 -> indices of slot k's members.
    buckets: list[dict[tuple, list[int]]] = [{} for _ in range(n)]
    for k, slot in enumerate(overlaps):
        for m, over in enumerate(slot):
            buckets[k].setdefault(tuple(over[:k]), []).append(m)

    for family in _compatible_families(buckets, overlaps, []):
        fixed = frozenset().union(*(located[k][m] for k, m in enumerate(family)))
        if not _complete_partial(klass, n, fixed, first_only=True):
            return NdapReport(n=n, holds=False,
                              witness_family=[members[m] for m in family])
    return NdapReport(n=n, holds=True)


def _compatible_families(buckets: list[dict], overlaps: list, chosen: list[int]):
    """Member indices of every compatible family extending `chosen`, depth first.

    Yields `chosen` itself, filled in; copy it to keep a family.  A module
    function, not a recursive closure: a closure that calls itself is a
    reference cycle, which keeps the whole index alive after check_ndap
    returns, until the next full garbage collection.
    """
    slot = len(chosen)
    if slot == len(buckets):
        yield chosen
        return
    required = tuple(overlaps[k][m][slot] for k, m in enumerate(chosen))
    for m in buckets[slot].get(required, ()):
        chosen.append(m)
        yield from _compatible_families(buckets, overlaps, chosen)
        chosen.pop()


# --- JEP and DAP ----------------------------------------------------------------

def _dap_instance_holds(klass: FiniteClass, s: Structure, t: Structure,
                        tp: Structure, phi: Injection, phip: Injection) -> bool:
    """Disjoint amalgamation for one overlap diagram, by layout.

    Host universe [1, m] with m = |t| + |tp| - |s|: t sits on [1, |t|]
    identically, tp's non-overlap part on the fresh tail, the overlap glued
    through phi and phip.  Tuples inside either part are fixed by t or tp
    (both embed s, so they agree on the overlap); tuples mixing the two
    private parts are free.  Whether a tuple mixes them depends on its
    entry set alone, so the free tuples are whole supports.  Sound and
    complete for classes closed under isomorphism and substructure.
    """
    m = t.n + tp.n - s.n
    if m > klass.cap:
        raise CapExceededError(f"amalgam host size {m} exceeds cap {klass.cap}")
    shared = {phip(x): phi(x) for x in range(1, s.n + 1)}
    fresh = iter(range(t.n + 1, m + 1))
    tp_part = [shared[y] if y in shared else next(fresh) for y in range(1, tp.n + 1)]
    fixed = _located_tuples(t, range(1, t.n + 1)) | _located_tuples(tp, tp_part)
    supports = [support for size in range(2, klass.signature.max_arity() + 1)
                for support in itertools.combinations(range(1, m + 1), size)
                if support[-1] > t.n and not set(tp_part).issuperset(support)]
    return bool(_completions(klass, m, fixed, supports, first_only=True))


def _overlaps(t: Structure, tp: Structure):
    """Every overlap diagram (s, t, tp, phi, phi') of two members, largest
    shared part first.

    s is t restricted to a part of its universe, phi the inclusion of that
    part, and phi' each embedding of s into tp in lexicographic image
    order.  Every diagram over t and tp is one of these up to relabelling s,
    which changes neither the layout nor its verdict.
    """
    for size in range(min(t.n, tp.n), -1, -1):
        for part in itertools.combinations(range(1, t.n + 1), size):
            s = restrict(t, part)
            phi = Injection.from_sequence(part)
            for phip in iter_embeddings(s, tp):
                yield s, t, tp, phi, phip


def check_jep(klass: FiniteClass, bound: int) -> JepReport:
    """Joint embedding property over members of size <= bound.

    A pair has a joint host exactly when the layout of the two over some
    shared part completes in the class (`_dap_instance_holds`): a host
    restricted to the two images is such a layout, of size <= 2 * bound.
    No host is enumerated.  Requires 2 * bound <= cap.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if 2 * bound > klass.cap:
        raise CapExceededError(
            f"joint host search needs sizes up to {2 * bound}, over cap {klass.cap}")
    members = [m for size in range(1, bound + 1) for m in klass.enumerate(size)]
    for s, t in itertools.combinations_with_replacement(members, 2):
        if not any(_dap_instance_holds(klass, *diagram) for diagram in _overlaps(s, t)):
            return JepReport(bound=bound, holds=False, witness_pair=(s, t))
    return JepReport(bound=bound, holds=True)


def check_dap(klass: FiniteClass, bound: int = 2) -> DapReport:
    """DAP via two independent routes that must agree.

    Route one is check_ndap at n = 2, two one-point members over the empty
    base.  Route two checks the direct overlap formulation: every overlap
    diagram (`_overlaps`) of every pair T, T' of members of size <= bound,
    S a part of T with phi its inclusion and phi' an embedding S -> T',
    must complete at size |T| + |T'| - |S|.  Route two covers route one, so
    they disagree only where route two fails alone: on classes without
    joint embedding, but also on ages of one structure such as the perfect
    matching's.  Then RuntimeError names the failing diagram and whether
    `check_jep` fails, and no verdict is called DAP.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    ndap2 = check_ndap(klass, 2)

    members = [m for size in range(0, bound + 1) for m in klass.enumerate(size)]
    diagrams = (diagram for t, tp in itertools.combinations_with_replacement(members, 2)
                for diagram in _overlaps(t, tp))
    failed = next((diagram for diagram in diagrams
                   if not _dap_instance_holds(klass, *diagram)), None)
    if (failed is None) != ndap2.holds:  # so route one holds and `failed` is a diagram
        jep_bound = min(bound, klass.cap // 2)
        why = (f"the class lacks joint embedding (check_jep at bound {jep_bound})"
               if not check_jep(klass, jep_bound).holds else f"joint embedding holds up to "
               f"bound {jep_bound}, and route one amalgamates over the empty base only")
        raise RuntimeError(
            f"on class {klass.name!r} 2-point family amalgamation (check_ndap at n = 2) holds "
            f"but the direct overlap formulation fails over a base of size {failed[0].n} "
            f"({failed[1]!r} and {failed[2]!r}); {why}; no DAP verdict is returned")
    counterexample = None
    if failed is not None:
        counterexample = {key: json.loads(serialize(x))
                          for key, x in zip(("s", "t", "t_prime"), failed)}
        counterexample.update(phi=failed[3].items(), phi_prime=failed[4].items())
    return DapReport(bound=bound, holds=failed is None, ndap=ndap2,
                     counterexample=counterexample)

"""Shared brute-force oracles and generators for the test suite.

Everything here is deliberately naive: direct quantification over all
injections, all assignments, or all structures.  The library under test is
never used to compute an expected value, only to produce the values being
checked.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from bisect import bisect_right
from collections import Counter

from relex import (AmalgamationFailure, HierarchicalRandomSource, Injection, Signature,
                   Structure, embedding_exists, enumerate_embeddings, induced_ordering,
                   permutation_rank, relabel, restrict, serialize)
from relex.amalgamation import _partial, _step_classes
from relex.rules import DecisionContext
from relex.samplers import _class_index
from relex.stattests import EmpiricalLaw
from relex.theory import And, Atom, Implies, Not, Or


def naive_embeddings(s: Structure, t: Structure) -> list[tuple[int, ...]]:
    """All embeddings of s into t by filtering every injection of universes.

    Returned as sorted image sequences (image of 1, image of 2, ...).
    """
    if s.signature != t.signature:
        return []
    found = []
    for images in itertools.permutations(range(1, t.n + 1), s.n):
        ok = True
        for name, arity in s.signature:
            for tup in itertools.product(range(1, s.n + 1), repeat=arity):
                image = tuple(images[c - 1] for c in tup)
                if s.has(name, tup) != t.has(name, image):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(images)
    return sorted(found)


def naive_context_key(structure: Structure, tup: tuple[int, ...]) -> str:
    """The (structure, tuple) key by trying every relabeling.

    Relabels through each permutation of [1, n] and keeps the smallest
    (serialization, mapped tuple) pair, written as `serialization|[tuple]`.
    With the empty tuple the serialization is the canonical form's.
    """
    best = None
    for perm in itertools.permutations(range(1, structure.n + 1)):
        relabeled = Structure(structure.signature, structure.n,
                              {name: [tuple(perm[c - 1] for c in t)
                                      for t in structure.tuples(name)]
                               for name in structure.signature.names()})
        cand = (serialize(relabeled), tuple(perm[c - 1] for c in tup))
        if best is None or cand < best:
            best = cand
    return f"{best[0]}|{json.dumps(list(best[1]))}"


def naive_restrict(structure: Structure, images) -> Structure:
    """The structure on [1, k] pulled back along i -> images[i-1].

    A tuple is in the result exactly when its image is in the input, checked
    over all k^arity candidate tuples.  Given a set, the images are taken in
    increasing order, which makes the result the restriction to that set.
    """
    images = sorted(images) if isinstance(images, (set, frozenset)) else list(images)
    k = len(images)
    relations = {name: [tup for tup in itertools.product(range(1, k + 1), repeat=arity)
                        if structure.has(name, tuple(images[c - 1] for c in tup))]
                 for name, arity in structure.signature}
    return Structure(structure.signature, k, relations)


def _holds(formula, assignment: dict, structure: Structure) -> bool:
    """A quantifier-free formula under one assignment of its variables."""
    if isinstance(formula, Atom):
        return structure.has(formula.relation, tuple(assignment[v] for v in formula.variables))
    if isinstance(formula, Not):
        return not _holds(formula.operand, assignment, structure)
    if isinstance(formula, And):
        return all(_holds(p, assignment, structure) for p in formula.parts)
    if isinstance(formula, Or):
        return any(_holds(p, assignment, structure) for p in formula.parts)
    if isinstance(formula, Implies):
        return (not _holds(formula.antecedent, assignment, structure)
                or _holds(formula.consequent, assignment, structure))
    raise TypeError(f"unknown formula node {formula!r}")


def naive_satisfies(theory, structure: Structure) -> bool:
    """Model check by walking each sentence's formula tree at every assignment."""
    if structure.signature != theory.signature:
        return False
    return all(_holds(sentence.matrix, dict(zip(sentence.variables, values)), structure)
               for sentence in theory.sentences
               for values in itertools.product(structure.universe(),
                                               repeat=len(sentence.variables)))


def naive_models(theory, n: int) -> list[Structure]:
    """All models of a universal theory on [1, n] by filtering every structure."""
    models = [s for s in all_structures(theory.signature, n) if naive_satisfies(theory, s)]
    return sorted(models, key=lambda s: s.key())


def all_structures(signature: Signature, n: int) -> list[Structure]:
    """Every structure on [1, n] over the signature (exponential; keep n small)."""
    tuple_space = []
    for name, arity in signature:
        for tup in itertools.product(range(1, n + 1), repeat=arity):
            tuple_space.append((name, tup))
    out = []
    for bits in itertools.product((False, True), repeat=len(tuple_space)):
        relations: dict[str, list] = {name: [] for name, _ in signature}
        for bit, (name, tup) in zip(bits, tuple_space):
            if bit:
                relations[name].append(tup)
        out.append(Structure(signature, n, relations))
    return out


def random_structure(rng: random.Random, signature: Signature, n: int,
                     density: float = 0.5) -> Structure:
    relations: dict[str, list] = {}
    for name, arity in signature:
        chosen = [tup for tup in itertools.product(range(1, n + 1), repeat=arity)
                  if rng.random() < density]
        relations[name] = chosen
    return Structure(signature, n, relations)


def random_graph(rng: random.Random, n: int, density: float = 0.5) -> Structure:
    """Random loop-free symmetric structure over the E/2 signature."""
    sig = Signature((("E", 2),))
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < density:
                edges.append((i, j))
                edges.append((j, i))
    return Structure(sig, n, {"E": edges})


def injection_images(phis: list[Injection]) -> list[tuple[int, ...]]:
    """Embeddings as sorted image sequences, comparable to naive_embeddings."""
    return sorted(phi.image_sequence() for phi in phis)


def naive_ndap_witness(klass, n: int):
    """First family (in slot-by-slot enumeration order) with no amalgam, or None.

    Brute force over the full product of slot members: slot i holds a
    member on [1, n-1] standing for [1, n] minus {i}.  Two slots are
    compatible when their restrictions to the shared points agree, and a
    family has an amalgam when some member on [1, n] restricts to every
    slot.  Costs members^n; keep the product small.
    """
    def shared(member, i, j):
        # member lives on [1, n] minus {i}, re-indexed; keep [1, n] minus {i, j}
        return restrict(member, [x if x < i else x - 1
                                 for x in range(1, n + 1) if x not in (i, j)]).key()

    extended = {tuple(restrict(host, [x for x in range(1, n + 1) if x != i]).key()
                      for i in range(1, n + 1))
                for host in klass.enumerate(n)}
    members = klass.enumerate(n - 1)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    overlap = {(i, j): [shared(m, i, j) for m in members]
               for a, b in pairs for i, j in ((a, b), (b, a))}
    for family in itertools.product(range(len(members)), repeat=n):
        if all(overlap[i, j][family[i - 1]] == overlap[j, i][family[j - 1]]
               for i, j in pairs):
            if tuple(members[m].key() for m in family) not in extended:
                return [members[m] for m in family]
    return None


def naive_dap_instance(klass, s, t, tp, phi, phip) -> bool:
    """Whether one overlap diagram phi: s -> t, phip: s -> tp has a disjoint amalgam.

    Scans every member on [1, m], m = |t| + |tp| - |s|, for embeddings f of
    t and g of tp that agree on s (f after phi equals g after phip) and
    whose images together cover the host.
    """
    m = t.n + tp.n - s.n
    for host in klass.enumerate(m):
        for f in enumerate_embeddings(t, host):
            for g in enumerate_embeddings(tp, host):
                if (f.compose(phi) == g.compose(phip)
                        and f.image() | g.image() == frozenset(range(1, m + 1))):
                    return True
    return False


def free_tuples(signature: Signature, m: int, supports) -> list:
    """The (name, tuple) pairs on [1, m] whose entry set is one of the
    `supports` (sorted tuples), in signature order, each relation's tuples
    in product order."""
    supports = set(supports)
    return [(name, tup) for name, arity in signature
            for tup in itertools.product(range(1, m + 1), repeat=arity)
            if tuple(sorted(set(tup))) in supports]


def naive_completions(klass, m: int, fixed, free, first_only: bool = False,
                      max_free: int = 20) -> list[Structure]:
    """The members on [1, m] that hold exactly the `fixed` pairs outside the
    (name, tuple) pairs in `free`, by the two routes of the completion
    search that the support search replaced.

    Up to `max_free` free tuples, every assignment of them in product
    order; above that, a scan of the class enumeration.  Members come
    sorted by key, except that `first_only` returns the first one found.
    """
    names = klass.signature.names()
    if len(free) > max_free:
        free_set, fixed_set = set(free), set(fixed)
        matching = (member for member in klass.enumerate(m)
                    if {(name, t) for name in names for t in member.tuples(name)}
                    - free_set == fixed_set)
        return list(itertools.islice(matching, 1 if first_only else None))
    found = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        relations = {name: set() for name in names}
        for name, tup in fixed:
            relations[name].add(tup)
        for (name, tup), bit in zip(free, bits):
            if bit:
                relations[name].add(tup)
        candidate = Structure(klass.signature, m, relations)
        if klass.contains(candidate):
            if first_only:
                return [candidate]
            found.append(candidate)
    return sorted(found, key=lambda s: s.key())


def naive_jep(klass, bound: int):
    """(holds, witness pair) of joint embedding over members of size <= bound.

    Every pair of members, in enumeration order, needs a host: a member of
    size max(|s|, |t|) to 2 * bound into which both embed.  The first pair
    with none is the witness.
    """
    members = [m for size in range(1, bound + 1) for m in klass.enumerate(size)]
    for s, t in itertools.combinations_with_replacement(members, 2):
        hosts = (host for size in range(max(s.n, t.n), 2 * bound + 1)
                 for host in klass.enumerate(size))
        if not any(embedding_exists(s, host) and embedding_exists(t, host) for host in hosts):
            return False, (s, t)
    return True, None


def naive_keyed_draws(seed: int, subset) -> tuple[float, tuple[int, ...]]:
    """xi and the ordering of a subset, built from the documented construction.

    The key is the seed reduced mod 2^64, as 8 big-endian bytes.  Block c
    of a draw is the 32-byte keyed blake2b of `tag|s#c`, s the sorted
    subset written as comma-separated decimals, hashed afresh per block.
    xi is the top 53 bits of the first 7 bytes of the `xi` blocks over
    2^53.  The ordering shuffles the sorted subset by Fisher-Yates from
    the last position down: position i takes a draw below i + 1, read as
    the top k = bit_length(i) bits of the next ceil(k / 8) bytes of the
    `ord` blocks, read on from one block into the next, and a draw above
    i is thrown away and read again.
    """
    key = (seed % 2 ** 64).to_bytes(8, "big")
    text = ",".join(str(x) for x in sorted(set(subset)))

    def block(tag: str, counter: int) -> bytes:
        data = f"{tag}|{text}#{counter}".encode("ascii")
        return hashlib.blake2b(data, key=key, digest_size=32).digest()

    xi = (int.from_bytes(block("xi", 0)[:7], "big") >> 3) / 2 ** 53
    stream = (byte for counter in itertools.count() for byte in block("ord", counter))
    items = sorted(set(subset))
    for i in range(len(items) - 1, 0, -1):
        k = i.bit_length()
        nbytes = (k + 7) // 8
        while True:
            j = int.from_bytes(bytes(next(stream) for _ in range(nbytes)), "big")
            j >>= 8 * nbytes - k
            if j <= i:
                break
        items[i], items[j] = items[j], items[i]
    return xi, tuple(items)


def naive_decide(df, ctx) -> bool:
    """A table rule's decision, its entries matched as before tables read
    their checked positions directly: every draw checks and sorts its
    positions through the public `elements` and `subset`, and goes to the
    context's source; draws are memoized by positions within the decision,
    as a table's `decide` draws them."""
    draws: dict = {}

    def draw(kind, positions):
        if (kind, positions) not in draws:
            subset = ctx.subset(positions)
            draws[kind, positions] = (
                bisect_right(ctx.partition, ctx.source.xi(subset)) if kind == "xi"
                else induced_ordering(ctx.elements(positions), ctx.source.ordering(subset)).ranks)
        return draws[kind, positions]

    def matches(entry) -> bool:
        if entry.pattern is not None and ctx.pattern() != entry.pattern:
            return False
        if entry.context_key is not None and ctx.context_key() != entry.context_key:
            return False
        if entry.thresholds is not None:
            for positions, allowed in entry.thresholds:
                if draw("xi", positions) not in allowed:
                    return False
        if entry.orderings is not None:
            for positions, ranks in entry.orderings:
                if draw("ordering", positions) != ranks:
                    return False
        return True

    return next((entry.bit for entry in df.entries if matches(entry)), df.default)


def naive_sample_framewise(klass, n: int, src, rep_weights=None, order="size") -> Structure:
    """The frame-wise sampler with every step laid out afresh per sample.

    The subsets are visited in `order`: "size" (size, then entries) or
    "colex" (largest point, size, then entries), the library's order.  Both
    put each subset after its proper subsets, so they give the same samples,
    but a failure may name another subset.  Each step looks its partial up
    through `_step_classes` from the tuples decided on every proper subset,
    and the chosen members' tuples are relabelled when the sample is
    assembled; the draws are the ones the library's sampler makes, and in
    colex order they come in the same order.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if order not in ("size", "colex"):
        raise ValueError(f"unknown order {order!r}")
    if rep_weights is not None:
        rep_weights = tuple(float(w) for w in rep_weights)
    signature = klass.signature
    names = signature.names()
    if n == 0:
        return Structure(signature, 0)
    if not _step_classes(klass, 1).orbits:
        raise ValueError(f"class {klass.name!r} has no members of size 1")
    forced_above = klass.forced_above
    top = n if forced_above is None else min(n, max(1, forced_above))
    subsets = [s for k in range(1, top + 1) for s in itertools.combinations(range(1, n + 1), k)]
    if order == "colex":
        subsets.sort(key=lambda s: (s[-1], len(s), s))
    decided: dict[tuple, tuple] = {}
    for s in subsets:
        k = len(s)
        local = {x: i for i, x in enumerate(s, 1)}
        inside = [(name, tuple(local[support[c - 1]] for c in tup))
                  for size in range(1, k) for support in itertools.combinations(s, size)
                  for name, tup in decided.get(support, ())]
        classes = _step_classes(klass, k, inside)
        orbits = classes.orbits
        if not orbits:
            partial = Structure(signature, k, _partial(names, inside))
            family = [restrict(partial, [j for j in range(1, k + 1) if j != i])
                      for i in range(1, k + 1)]
            raise AmalgamationFailure(s, family, klass.name)
        if len(orbits) == 1 and len(orbits[0]) == 1:
            index, rank = 0, 0
        elif k == 1:  # a singleton's choice is never weighted and has no orbit to rank
            index, rank = _class_index(src.xi(s), len(orbits), None), 0
        else:
            index = _class_index(src.xi(s), len(orbits), rep_weights)
            perm = src.ordering(s)
            orbit_size = len(orbits[index])
            rank = (permutation_rank([s.index(x) + 1 for x in perm]) % orbit_size
                    if orbit_size > 1 else 0)
        new = classes.new_tuples[index][rank]
        if new:
            decided[s] = new
    relations: dict[str, list] = {name: [] for name in names}
    for support, pairs in decided.items():
        for name, tup in pairs:
            relations[name].append(tuple([support[c - 1] for c in tup]))
    return Structure(signature, n, relations)


class NaiveRuleSampler:
    """A rule-driven sampler that reads its rules entry by entry, sample by
    sample, with none of the library's plans, resolved entries or memos.

    Each tuple over the points is decided in global labels against the
    reference on [1, max(points)].  A table rule's entries are tried in
    order: the pattern is recomputed, the context key is the brute-force
    key (`naive_context_key`) of the reference restricted to the tuple's
    range, and each threshold and ordering draws on the source as it is
    read, so an entry that fails stops drawing.  The first entry that holds
    gives the bit, else the default.  A function rule is called on a fresh
    context.  `rules` maps relation names to rules; `oracle` is a finite
    structure or None.
    """

    def __init__(self, rules, oracle=None):
        self.rules, self.oracle = dict(rules), oracle
        self.signature = Signature(sorted((name, df.arity) for name, df in self.rules.items()))

    def sample(self, src, n: int) -> Structure:
        return self.sample_on(src, range(1, n + 1))

    def sample_on(self, src, points) -> Structure:
        points = sorted(set(points))
        top = points[-1] if points else 0
        reference = (None if self.oracle is None
                     else self.oracle.initial_segment(top) if hasattr(self.oracle, "initial_segment")
                     else naive_restrict(self.oracle, range(1, top + 1)))
        relations = {name: [tuple(points.index(c) + 1 for c in tup)
                            for tup in itertools.product(points, repeat=df.arity)
                            if _naive_rule_bit(df, src, tup, reference)]
                     for name, df in self.rules.items()}
        return Structure(self.signature, len(points), relations)


def _naive_rule_bit(df, src, tup, reference) -> bool:
    if not hasattr(df, "entries"):  # a function rule
        return df.decide(DecisionContext(src, df.relation, tup, df.partition,
                                         df.context_mode, reference))

    def at(positions):
        return [tup[p - 1] for p in positions]

    def holds(entry) -> bool:
        if entry.pattern is not None and \
                [list(dict.fromkeys(tup)).index(c) for c in tup] != list(entry.pattern):
            return False
        if entry.context_key is not None:
            support = sorted(set(tup))
            local = tuple(support.index(c) + 1 for c in tup)
            if naive_context_key(naive_restrict(reference, support), local) != entry.context_key:
                return False
        for positions, allowed in entry.thresholds or ():
            if bisect_right(df.partition, src.xi(at(positions))) not in allowed:
                return False
        for positions, ranks in entry.orderings or ():
            rank = {x: r for r, x in enumerate(src.ordering(at(positions)))}
            if tuple(rank[x] for x in at(positions)) != tuple(ranks):
                return False
        return True

    return next((entry.bit for entry in df.entries if holds(entry)), df.default)


class RecordingSource(HierarchicalRandomSource):
    """A source that records the set of every subset it draws on, by kind,
    and in `calls` how often it drew on each."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = set()
        self.calls = Counter()

    def xi(self, subset=()):
        subset = tuple(subset)
        self._record("xi", subset)
        return super().xi(subset)

    def ordering(self, subset):
        subset = tuple(subset)
        self._record("ordering", subset)
        return super().ordering(subset)

    def _record(self, kind, subset):
        drawn = (kind, tuple(sorted(set(subset))))
        self.drawn.add(drawn)
        self.calls[drawn] += 1


def naive_law(sampler, subset, n_samples: int, seeds, offset: int = 0, along=None):
    """The empirical law of the samples restricted to the sorted `subset`, one
    sample at a time: each sample is drawn on [1, max(subset)], restricted,
    pulled back along `along` when given, and recorded with count 1."""
    subset = tuple(sorted(set(subset)))
    law = EmpiricalLaw(subset, n_samples)
    for i in range(n_samples):
        sample = sampler.sample(HierarchicalRandomSource(seeds[offset + i]), subset[-1])
        restricted = restrict(sample, subset)
        law.record(restricted if along is None else relabel(restricted, along)[0])
    return law


class CountingSampler:
    """Wraps a sampler and counts the samples drawn through it; it has only
    `sample` and `signature`, as a sampler from outside the library may."""

    def __init__(self, base):
        self.base, self.signature, self.calls = base, base.signature, 0

    def sample(self, src, n):
        self.calls += 1
        return self.base.sample(src, n)

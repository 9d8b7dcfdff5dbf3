"""Random-structure generators driven by subset-keyed randomness.

Four per-tuple samplers (plain exchangeable, reference-restricted,
initial-segment, and the frame-wise uniform construction over a class) plus
age-indexed laws estimated by Monte Carlo and exact conditional sequential
growth.  All samplers are pure functions of (inputs, seed) and exactly
projective: sampling n points and restricting to [1, m] is bitwise the same
as sampling m points with the same seed, because every choice is keyed by
the subset it concerns.

How local a sample is differs by kind.  A rule-driven sample decides each
tuple from the draws on subsets of its range and the reference there (on
[1, max entry] in segment mode), so its restriction to a set of points
reads only the draws on subsets of those points (`sample_on`), and the
statistical tests draw only the points they probe; all that no seed
changes there is compiled once (`_Plan`), each set drawn once a sample.  A
frame-wise step at s reads what the steps below s built, and raises
`AmalgamationFailure` at any subset with no amalgam: its restriction to S
needs the whole of [1, max S], since drawing S alone would skip a failure
outside S and return a result where the sample has none.  The steps on
[1, m] come first at every size, so a failure names one subset at every
size that reaches it, and one decision trie per class builds each distinct
sample once.  Sequential growth conditions step m on all of [1, m - 1];
the bespoke samplers of `catalog` draw whole samples.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Optional, Sequence

from .amalgamation import FiniteClass, _partial, _step_classes
from .embeddings import (Oracle, enumerate_embeddings, ensure_lazy,
                         natural_embedding)
from .randomness import HierarchicalRandomSource, SeedStream, _labelled, permutation_rank
from .rules import (TableDecisionFunction, _bits, _Draws, _types,
                    context_key_signature, normalize_rules, rules_signature)
from .stattests import _tally
from .structures import Injection, Signature, Structure, relabel, restrict


class AmalgamationFailure(RuntimeError):
    """No member extends the built substructures at some subset.

    Carries the offending subset (global labels), the first in visiting
    order (colex) with no amalgam, and the family of its co-dimension-one
    restrictions, each on [1, |subset| - 1]: a constructive witness that
    the class lacks |subset|-DAP.  The sample on [1, max(subset) - 1]
    exists, and every size from max(subset) on raises the same failure.
    """

    def __init__(self, subset: tuple[int, ...], family: list[Structure],
                 class_name: str = ""):
        self.subset = tuple(subset)
        self.family = list(family)
        where = f" in class {class_name!r}" if class_name else ""
        super().__init__(f"no amalgam over subset {self.subset}{where}")


class ZeroProbabilityConditioning(RuntimeError):
    """Sequential growth hit a prefix with (near-)zero table mass."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"conditioning event at step {step} has probability below the floor")


# --- per-tuple samplers --------------------------------------------------------

_ALLOWED_CONTEXTS = {
    "exchangeable": ("none",),
    "m-exchangeable": ("none", "restriction"),
    "maxseg": ("none", "restriction", "segment"),
}
_MAX_PLANNED_STEPS = 1 << 10  # steps a class or rule set keeps; a class's trie nodes and samples


class _RuleSet:
    """A rule set normalized and checked against one sampling kind and its
    reference, with its signature and its plans by point set: the part of a
    rule-driven sample that no seed changes, prepared once per sampler
    instead of once per sample."""

    __slots__ = ("kind", "rules", "oracle", "signature", "steps", "reads_reference", "_plans")

    def __init__(self, rules, kind: str, oracle: Optional[Oracle] = None):
        rules = normalize_rules(rules)
        allowed = _ALLOWED_CONTEXTS[kind]
        for df in rules.values():
            if df.context_mode not in allowed:
                raise ValueError(
                    f"{kind} sampling cannot serve context mode {df.context_mode!r} "
                    f"(rule for {df.relation!r}); it serves context mode "
                    + ", ".join(map(repr, allowed)))
        if oracle is not None:
            _check_reference(rules, ensure_lazy(oracle).signature)
        self.kind = kind
        self.rules = rules
        self.oracle = oracle
        self.signature = rules_signature(rules)
        # (name, rule) in signature order
        self.steps = tuple((name, rules[name]) for name in self.signature.names())
        self.reads_reference = any(df.context_mode != "none" for df in rules.values())
        self._plans: dict[tuple[int, ...], _Plan] = {}

    def plan(self, points: tuple[int, ...]) -> "_Plan":
        """The plan on the sorted, distinct, positive `points`, kept with the others."""
        if points not in self._plans:
            if sum(len(plan.steps) for plan in self._plans.values()) >= _MAX_PLANNED_STEPS:
                self._plans.clear()
            self._plans[points] = _Plan(self, points)
        return self._plans[points]


def _check_reference(rules, reference: Signature) -> None:
    """Raise unless every table entry's context key names the reference's
    signature: a key over another signature never matches, so its entry
    could never fire."""
    for df in rules.values():
        for entry in getattr(df, "entries", ()):
            if entry.context_key is None:
                continue
            keyed = context_key_signature(entry.context_key)
            if keyed != reference:
                raise ValueError(
                    f"rule for {df.relation!r} has a context key over {keyed!r}, "
                    f"but the reference has {reference!r}; the entry could never match")


def _segment(n: int) -> range:
    if n < 0:
        raise ValueError("n must be >= 0")
    return range(1, n + 1)


def _steps(rules: _RuleSet, points: tuple[int, ...], sets: _Draws):
    """The steps over the sorted, distinct, positive `points` for `rules._bits`:
    (relation, tuple on [1, |points|], partition, default, entries from
    `resolve`) for a table rule, or (relation, local tuple, context arguments,
    rule, None), with the reference on [1, max(points)], for a function rule."""
    reference = (ensure_lazy(rules.oracle).initial_segment(points[-1] if points else 0)
                 if rules.reads_reference else None)
    index = {x: i for i, x in enumerate(points, 1)} if points[-1:] != (len(points),) else None
    for name, df in rules.steps:
        tuples, typed = itertools.tee(itertools.product(points, repeat=df.arity))
        local = tuples if index is None else (tuple([index[x] for x in tup]) for tup in tuples)
        if isinstance(df, TableDecisionFunction):
            typed, other = itertools.tee(typed)
            types = _types(reference if df._entry_keys else None, other, df.arity)
            yield from zip(itertools.repeat(name), local, itertools.repeat(df.partition),
                           itertools.repeat(df.default), df.resolve(typed, sets, types))
        else:
            yield from ((name, at, (name, tup, df.partition, df.context_mode, reference), df, None)
                        for at, tup in zip(local, typed))


class _Plan:
    """The steps on sorted points (`_steps`) compiled for `rules._bits`, and the
    sets they draw on; unless kept, compiled as its one sample walks them.  A
    table tuple is bound to the template of its type, read by content with
    no context (`rules._types`); only function rules get a context."""

    __slots__ = ("signature", "size", "sets", "steps", "_walked")

    def __init__(self, rules: _RuleSet, points: tuple[int, ...], kept: bool = True):
        self.signature, self.size, self.sets = rules.signature, len(points), _Draws()
        steps = _steps(rules, points, self.sets)
        if kept:
            self.steps = self._walked = list(steps)
        else:  # walked in step with `structure`, holding one step at a time
            self.steps, self._walked = itertools.tee(steps)

    def bits(self, src: HierarchicalRandomSource) -> tuple[bool, ...]:
        return tuple(_bits(self._walked, src, self.sets))

    def sample(self, src: HierarchicalRandomSource) -> Structure:
        return self.structure(_bits(self._walked, src, self.sets))

    def structure(self, bits) -> Structure:
        relations = {name: [] for name in self.signature.names()}
        for name, local, *_ in itertools.compress(self.steps, bits):
            relations[name].append(local)
        return Structure._trusted(self.signature, self.size, relations)


def _sample_by_rules(rules, points: Sequence[int], src: HierarchicalRandomSource, kind: str,
                     oracle: Optional[Oracle]) -> Structure:
    """The plan on sorted `points` walked by one source, past _MAX_PLANNED_STEPS
    tuples not kept; `rules` may be a `_RuleSet` for kind."""
    if not (isinstance(rules, _RuleSet) and rules.kind == kind and rules.oracle is oracle):
        rules = _RuleSet(rules, kind, oracle)
    points = tuple(points)
    kept = sum(len(points) ** df.arity for _, df in rules.steps) <= _MAX_PLANNED_STEPS
    return (rules.plan(points) if kept else _Plan(rules, points, kept=False)).sample(src)


def sample_exchangeable(rules, n: int, src: HierarchicalRandomSource) -> Structure:
    """Tuple membership decided by context-free rules on subset-keyed randomness."""
    return _sample_by_rules(rules, _segment(n), src, "exchangeable", None)


def sample_m_exchangeable(rules, oracle: Oracle, n: int,
                          src: HierarchicalRandomSource) -> Structure:
    """Rules may additionally read the reference restricted to the tuple's range."""
    return _sample_by_rules(rules, _segment(n), src, "m-exchangeable", oracle)


def sample_maxseg_exchangeable(rules, oracle: Oracle, n: int,
                               src: HierarchicalRandomSource) -> Structure:
    """Rules may read the reference's initial segment up to the largest entry."""
    return _sample_by_rules(rules, _segment(n), src, "maxseg", oracle)


# --- frame-wise uniform construction -------------------------------------------

def _class_index(u: float, count: int, rep_weights: Optional[tuple]) -> int:
    """The choice among `count` classes that the uniform u makes: equal-width
    intervals, or intervals proportional to `rep_weights` when it has
    `count` entries."""
    if rep_weights is None or len(rep_weights) != count:
        return min(int(u * count), count - 1)
    total = sum(rep_weights)
    cum = 0.0
    for j, w in enumerate(rep_weights):
        cum += w
        if u < cum / total:
            return j
    return count - 1


class _KeptSteps(list):
    """A class's kept steps (`_step_plan`), `ends[m]` of them on [1, m], and the
    root of its trie (`_Node`): `children[()]` is the first node a walk
    visits, `i` the index before the first step, and `nodes` counts the
    trie's nodes and samples."""

    __slots__ = ("ends", "children", "i", "nodes")


class _Node:
    """A trie step on one path of choices: its subset s, size k and index i in
    the kept list, its classes and their orbits (None for one amalgam), the
    node before it and the choice made there (the kept list and () at the
    first step), per choice made here the next node a walk visits, and at
    the last step on some [1, m] the sample on [1, m] per choice (else
    None).  A walk passes over steps with one amalgam: a link skips a run
    of them to the node after it, or to the last one while the path ends
    there."""

    __slots__ = ("s", "k", "i", "classes", "orbits", "parent", "via", "children", "samples")

    def __init__(self, s, k, i, classes, orbits, parent, via, samples):
        self.s, self.k, self.i, self.classes, self.orbits = s, k, i, classes, orbits
        self.parent, self.via, self.children, self.samples = parent, via, {}, samples


_FORCED = (0, 0)  # the choice at a step with one amalgam


def _colex_steps(klass: FiniteClass, m: int, kept: bool):
    """The steps whose largest point is m, by size then entries (`_step_plan`)."""
    top = m if klass.forced_above is None else min(m, max(1, klass.forced_above))
    return itertools.chain.from_iterable(
        zip(map(_labelled, (rest + (m,) for rest in itertools.combinations(range(1, m), k - 1))),
            itertools.repeat(k),
            itertools.repeat([(size, list(itertools.combinations(range(1, k + 1), size)))
                              for size in range(1, min(k - 1, klass.signature.max_arity()) + 1)]),
            iter(dict, None) if kept else itertools.repeat(None))
        for k in range(1, top + 1))


def _kept_steps(klass: FiniteClass, n: int) -> _KeptSteps:
    """The class's kept steps, grown a largest point at a time up to [1, n]
    while they stay within _MAX_PLANNED_STEPS."""
    plan = klass._step_plans
    if plan is None:
        plan = klass._step_plans = _KeptSteps()
        plan.ends, plan.children, plan.i, plan.nodes = [0], {}, -1, 0
    ends = plan.ends
    while len(ends) <= n:
        m = len(ends)
        top = m if klass.forced_above is None else min(m, max(1, klass.forced_above))
        if sum(math.comb(m, k) for k in range(1, top + 1)) > _MAX_PLANNED_STEPS:
            break
        plan.extend(_colex_steps(klass, m, kept=True))
        ends.append(len(plan))
    return plan


def _step_plan(klass: FiniteClass, n: int, start: int = 0):
    """The steps of a frame-wise sample on [1, n] in visiting order, from the
    one at index `start`.  A step is a subset s, its size k, for each
    support size that can hold a tuple (below k, at most the max arity) the
    positions in s of its subsets of that size, shared by all s of one
    size, and a memo from a member's tuples on [1, k] to the same in global
    labels.  A class keeps one colex list (`_kept_steps`); past it, fresh
    steps with memo None follow, each meeting one sample."""
    plan = _kept_steps(klass, n)
    ends = plan.ends
    if n < len(ends):
        return plan[start:ends[n]]
    return itertools.chain(
        plan[start:], *(_colex_steps(klass, m, kept=False) for m in range(len(ends), n + 1)))


def _build_state(klass: FiniteClass, n: int):
    """A built sample's state, empty: support -> its decided tuples, labelled
    on [1, |support|], nonempty only; the sizes of those supports below the
    largest step's; its (name, tuple) pairs; k -> the classes of the empty
    partial; and the largest step's size."""
    top = n if klass.forced_above is None else min(n, klass.forced_above)
    return {}, set(), [], {1: _step_classes(klass, 1)}, top


def sample_framewise(klass: FiniteClass, n: int, src: HierarchicalRandomSource,
                     rep_weights: Optional[Sequence[float]] = None) -> Structure:
    """Grow a structure subset by subset, uniformly over amalgam classes
    unless `rep_weights` weighs them.

    Subsets are visited in colex order (largest point, size, entries), each
    after its proper subsets: singletons, and above them only subsets of at
    most max(arity, locality) points, or all when the locality is unknown,
    since a larger step adds no tuple and cannot fail (see `amalgamation`).
    A singleton picks a size-1 member by equal parts of xi_{i}; a larger
    subset s gets the tuples with range exactly s: the members on [1, |s|]
    extending all proper restrictions are grouped by isomorphism class;
    xi_s picks a class (equal-width intervals, or `rep_weights` in the
    classes' canonical order at steps where the class count matches); the
    member within the class is orbit[rank(ordering of s) mod orbit size],
    uniform as the orbit size divides |s|!.  A step with one amalgam draws
    nothing; every other step draws both xi_s and the ordering of s (the
    benchmark's interaction map expects ordering draws on frame-wise
    graphs), and ranks the ordering only when the chosen orbit has more
    than one member.  Keyed randomness carries no stream state, so
    skipping a draw changes no other draw.

    The decision at s reads only what was built on the proper subsets of s,
    xi_s and the ordering of s, so a sample is a function of its choices.
    A class keeps one list of steps (`_step_plan`), those on [1, m] first
    for every n >= m, and one decision trie of choices along it (`_Node`,
    for every size and `rep_weights`).  One loop runs the steps, its choice
    read in one place, with the same draws in the same order on every path.
    A walk starts at the trie's root and reads no step list: each node
    holds its step, the links pass over the steps with one amalgam, and the
    walk ends at the step of index `ends[n] - 1`, whose node stores the
    sample for each choice made there.  A path that leaves the trie places
    the steps walked, read up the trie without drawing again, and builds on
    from the step list, a built step scanning only the support sizes that
    hold tuples it can read, adding nodes and samples, `_MAX_PLANNED_STEPS`
    in all, none at a failing step; a size past the kept list walks the
    kept steps and builds the rest.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if rep_weights is not None:
        rep_weights = tuple(float(w) for w in rep_weights)
        if not rep_weights or not all(math.isfinite(w) and w > 0 for w in rep_weights):
            raise ValueError("rep_weights must be finite and positive")
    if n == 0:
        return Structure._trusted(klass.signature, 0, {})

    trie = klass._step_plans
    if trie is None or n >= len(trie.ends):
        trie = _kept_steps(klass, n)
    ends, xi, ordering = trie.ends, src.xi, src.ordering
    kept = n < len(ends)
    end = ends[n] - 1 if kept else len(trie) - 1  # the index of the last step walked
    node, choice, steps = trie, (), None  # the node of the last step, its choice; steps built
    while True:
        if steps is None:
            at = node.children.get(choice)
            if at is not None and at.i <= end:
                node, s, k, orbits = at, at.s, at.k, at.orbits
            else:
                if at is not None and node.i < end:  # the end is a step with one amalgam passed over
                    node, choice = at.parent, _FORCED
                    while node.i > end:
                        node = node.parent
                if kept and node.i == end:
                    sample = node.samples.get(choice)
                    if sample is not None:
                        return sample
                # the path leaves the trie: place the steps walked, drawn
                # already, read up the trie from this one, and build on
                decided, sizes, pairs, empty, top = _build_state(klass, n)
                up, made, path = node, choice, []
                while up is not trie:
                    path.append((up, made))
                    up, made = up.parent, up.via
                done = ((at.s, at.k, trie[at.i][3], at.classes, made) for at, made in reversed(path))
                steps, i = iter(_step_plan(klass, n, node.i + 1)), node.i
                continue
        else:
            for s, k, memo, classes, (index, rank) in done:
                new = classes.new_tuples[index][rank]
                if new:
                    decided[s] = new
                    if k < top:  # no step reads a support of the largest step's size
                        sizes.add(k)
                    placed = memo.get(new) if memo is not None else None
                    if placed is None:
                        placed = [(name, tuple([s[c - 1] for c in tup])) for name, tup in new]
                        if memo is not None:
                            memo[new] = placed
                    pairs.extend(placed)
            step = next(steps, None)
            if step is None:
                break
            s, k, groups, memo = step
            i += 1
            # the decided tuples inside s, relabelled onto [1, k]
            inside = [(name, tuple([pos[c - 1] for c in tup]))
                      for size, group in groups if size in sizes
                      for support, pos in zip(itertools.combinations(s, size), group)
                      for name, tup in decided.get(support, ())] if sizes else []
            classes = (_step_classes(klass, k, inside) if inside
                       else empty.get(k) or empty.setdefault(k, _step_classes(klass, k)))
            if not classes.orbits:
                if k == 1:
                    raise ValueError(f"class {klass.name!r} has no members of size 1")
                signature = klass.signature
                local = Structure._trusted(signature, k, _partial(signature.names(), inside))
                family = [restrict(local, [j for j in range(1, k + 1) if j != i])
                          for i in range(1, k + 1)]
                raise AmalgamationFailure(s, family, klass.name)
            parent, node, orbits = node, None, classes.orbits
            orbits = None if len(orbits) == 1 and len(orbits[0]) == 1 else orbits
            if parent is not None and memo is not None and trie.nodes < _MAX_PLANNED_STEPS:
                node = parent.children[choice] = _Node(
                    s, k, i, classes, orbits, parent, choice, {} if ends[s[-1]] == i + 1 else None)
                trie.nodes += 1
                # the steps with one amalgam just before it link past themselves to it
                while parent is not trie and parent.orbits is None:
                    parent.parent.children[parent.via] = node
                    parent = parent.parent
        if orbits is None:  # one amalgam: nothing drawn
            choice = _FORCED
        else:  # xi_s picks the class and, above singletons, s's order the orbit member
            u, count = xi(s), len(orbits)
            # u is a multiple of 2^-53 below 1, so u * count rounds below count
            index = (int(u * count) if k == 1 or rep_weights is None
                     else _class_index(u, count, rep_weights))
            rank = 0
            if k > 1:
                order, size = ordering(s), len(orbits[index])
                rank = permutation_rank([s.index(x) + 1 for x in order]) % size if size > 1 else 0
            choice = (index, rank)
        if steps is not None:
            done = ((s, k, memo, classes, choice),)
    signature = klass.signature
    sample = Structure._trusted(signature, n, _partial(signature.names(), pairs))
    if node is not None and trie.nodes < _MAX_PLANNED_STEPS:  # at the step of index `end`
        node.samples[choice], trie.nodes = sample, trie.nodes + 1
    return sample


# --- age-indexed laws and sequential growth ------------------------------------

_EMBED_BOUND = 32  # reference points searched for an age member's greedy embedding
_MIN_MASS = 1e-6  # sequential growth raises below this conditioning mass


class AgeIndexedLaw:
    """Per age member, a probability table over structures on its size.

    Tables are keyed by the member's serialization; each table is a
    deterministically ordered list of (structure, probability) pairs over a
    possibly different output signature.
    """

    def __init__(self, signature: Signature, cap: int):
        self.signature = signature  # output signature of the sampled structures
        self.cap = cap
        self.members: dict[str, Structure] = {}
        self.tables: dict[str, tuple[tuple[Structure, float], ...]] = {}
        self.max_discrepancy: float = 0.0
        self.worst_pair: Optional[tuple[str, str]] = None

    def add_table(self, member: Structure, distribution: Mapping[Structure, float]) -> None:
        total = sum(distribution.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"table probabilities sum to {total}, expected 1")
        for outcome in distribution:
            if outcome.n != member.n or outcome.signature != self.signature:
                raise ValueError("table outcome has wrong size or signature")
        self.members[member.key()] = member
        self.tables[member.key()] = tuple(
            sorted(distribution.items(), key=lambda item: item[0].key()))

    def table_for(self, member: Structure) -> tuple[tuple[Structure, float], ...]:
        try:
            return self.tables[member.key()]
        except KeyError:
            raise ValueError(
                f"law has no table for the given structure of size {member.n}") from None


def _total_variation(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    # summed in key order, so the float does not depend on the hash seed
    keys = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def age_indexed_from_sampler(sampler, oracle: Oracle, klass: FiniteClass,
                             cap: int, n_samples: int, meta_seed: int = 0) -> AgeIndexedLaw:
    """Estimate per-age-member output laws through greedy natural embeddings.

    For each member S of the class's age up to `cap`, finds the greedy
    embedding of S into the reference's first _EMBED_BOUND points, draws
    `n_samples` structures (fresh seeds from a meta-seeded stream) on its
    image (`stattests._tally`), pulls each back along the embedding, and
    tallies.  Afterwards computes, over every embedding between age
    members, the total-variation distance between the smaller member's
    table and the pullback of the larger's; the worst value is reported as
    `max_discrepancy` (statistically zero for genuinely invariant samplers).
    """
    lazy = ensure_lazy(oracle)
    law = AgeIndexedLaw(sampler.signature, cap)
    seeds = SeedStream(meta_seed)
    members: list[Structure] = []
    for size in range(1, cap + 1):
        members.extend(klass.enumerate(size))
    for j, member in enumerate(members):
        images = natural_embedding(member, lazy, _EMBED_BOUND).image_sequence()
        points = tuple(sorted(images))
        # i -> the place of rho(i) among the sorted images, when rho does not increase
        order = (None if images == points
                 else Injection.from_sequence([points.index(x) + 1 for x in images]))
        counts: dict[str, list] = {}
        for sample, count in _tally(sampler, points, n_samples, seeds, j * n_samples).items():
            pulled = sample if order is None else relabel(sample, order)[0]
            counts.setdefault(pulled.key(), [pulled, 0])[1] += count
        law.add_table(member, {structure: count / n_samples
                               for structure, count in counts.values()})

    worst = 0.0
    worst_pair = None
    for small in members:
        p = {structure.key(): prob for structure, prob in law.table_for(small)}
        for large in members:
            if large.n < small.n:
                continue
            for phi in enumerate_embeddings(small, large):
                pulled_probs: dict[str, float] = {}
                for outcome, prob in law.table_for(large):
                    pulled, _ = relabel(outcome, phi)
                    pulled_probs[pulled.key()] = pulled_probs.get(pulled.key(), 0.0) + prob
                tv = _total_variation(p, pulled_probs)
                if tv > worst:
                    worst = tv
                    worst_pair = (small.key(), large.key())
    law.max_discrepancy = worst
    law.worst_pair = worst_pair
    return law


def sample_sequential(law: AgeIndexedLaw, oracle: Oracle, n: int,
                      src: HierarchicalRandomSource) -> Structure:
    """Grow X|_[1], ..., X|_[n] by exact conditional sampling from the tables.

    At step m the table attached to the reference's segment on [1, m] is
    conditioned on agreeing with the already-built X|_[1, m-1]; the
    conditional outcome is picked by xi_{[1, m]}.  Raises
    ZeroProbabilityConditioning when the conditioning event's mass falls
    below _MIN_MASS.
    """
    lazy = ensure_lazy(oracle)
    current = Structure(law.signature, 0)
    for m in range(1, n + 1):
        segment = lazy.initial_segment(m)
        table = law.table_for(segment)
        prefix_key = current.key()
        candidates = [(outcome, prob) for outcome, prob in table
                      if restrict(outcome, range(1, m)).key() == prefix_key]
        mass = sum(prob for _, prob in candidates)
        if mass < _MIN_MASS:
            raise ZeroProbabilityConditioning(m)
        u = src.xi(tuple(range(1, m + 1))) * mass
        cum = 0.0
        chosen = candidates[-1][0]
        for outcome, prob in candidates:
            cum += prob
            if u < cum:
                chosen = outcome
                break
        current = chosen
    return current


# --- sampler objects (uniform interface for the test harness) -------------------

class _RuleSampler:
    """A rule set prepared for one kind over its reference (None for the
    exchangeable kind), with the local draw that every rule-driven sample
    has (see the module docstring)."""

    def __init__(self, rules, kind: str, oracle: Optional[Oracle]):
        self._rules = _RuleSet(rules, kind, oracle)
        self.rules = self._rules.rules
        self.oracle = oracle
        self.signature = self._rules.signature
        self._plan = self._rules.plan  # read by `stattests._tally`

    def sample_on(self, src: HierarchicalRandomSource, points) -> Structure:
        """The sample's restriction to `points` (positive integers), on
        [1, |points|]: `restrict(self.sample(src, max(points)), points)`
        byte for byte, but deciding only the tuples over `points`."""
        return _sample_by_rules(self._rules, HierarchicalRandomSource._check(points), src,
                                self._rules.kind, self.oracle)


class ExchangeableSampler(_RuleSampler):
    """Context-free rule sampler with a stable (sample, signature) interface."""

    def __init__(self, rules):
        super().__init__(rules, "exchangeable", None)

    def sample(self, src: HierarchicalRandomSource, n: int) -> Structure:
        return sample_exchangeable(self._rules, n, src)


class MExchangeableSampler(_RuleSampler):
    """Rules that may read the reference restricted to each tuple's range."""

    def __init__(self, rules, oracle: Oracle):
        super().__init__(rules, "m-exchangeable", oracle)

    def sample(self, src: HierarchicalRandomSource, n: int) -> Structure:
        return sample_m_exchangeable(self._rules, self.oracle, n, src)


class MaxSegSampler(_RuleSampler):
    """Rules that may also read the reference's segment up to each tuple's
    largest entry."""

    def __init__(self, rules, oracle: Oracle):
        super().__init__(rules, "maxseg", oracle)

    def sample(self, src: HierarchicalRandomSource, n: int) -> Structure:
        return sample_maxseg_exchangeable(self._rules, self.oracle, n, src)


class FramewiseSampler:
    def __init__(self, klass: FiniteClass, rep_weights: Optional[Sequence[float]] = None):
        self.klass = klass
        self.rep_weights = rep_weights
        self.signature = klass.signature

    def sample(self, src: HierarchicalRandomSource, n: int) -> Structure:
        return sample_framewise(self.klass, n, src, self.rep_weights)


class SequentialSampler:
    def __init__(self, law: AgeIndexedLaw, oracle: Oracle):
        self.law = law
        self.oracle = oracle
        self.signature = law.signature

    def sample(self, src: HierarchicalRandomSource, n: int) -> Structure:
        return sample_sequential(self.law, self.oracle, n, src)

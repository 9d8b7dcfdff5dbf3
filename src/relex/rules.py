"""Decision functions: per-tuple membership rules driven by keyed randomness.

A decision function answers, for one relation symbol, the question "does
this tuple belong?", reading only exchangeability-safe inputs exposed by a
DecisionContext:

  * the equality pattern of the tuple,
  * xi values keyed by subsets of the tuple's entries (bucketed through a
    fixed partition of [0, 1)),
  * ranks of tuple entries under the keyed random ordering of those entries,
  * in `restriction` mode, the reference structure restricted to the
    tuple's range (as a canonical context key),
  * in `segment` mode, also the reference structure's initial segment up
    to the largest tuple entry.

Samplers hand every context the same finite reference view, the reference
on [1, n]; each channel restricts it.

Table rules are data (JSON-loadable); function rules wrap an arbitrary
callable on the context.
"""

from __future__ import annotations

import itertools
import json
import operator
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .randomness import HierarchicalRandomSource, induced_ordering
from .structures import Signature, Structure, _canonical_cached, restrict

CONTEXT_MODES = ("none", "restriction", "segment")


def context_key(structure: Structure, tup: tuple[int, ...]) -> str:
    """Canonical key of a structure with a distinguished tuple over it.

    Minimizes (serialized relabeling, relabeled tuple) over all relabelings,
    so two (structure, tuple) pairs get equal keys exactly when some
    isomorphism of the structures carries one tuple to the other.
    """
    if any(c < 1 or c > structure.n for c in tup):
        raise ValueError("tuple entries must lie in the structure's universe")
    rels = tuple(structure.tuples(name) for name in structure.signature.names())
    best, mapped = _canonical_cached(structure.signature, structure.n, rels, tuple(tup))
    return f"{best.key()}|[{', '.join(map(str, mapped))}]"


@lru_cache(maxsize=1024)
def context_key_signature(key: str) -> Signature:
    """The signature a `context_key` string was made over, read from its
    serialized structure; raises ValueError on a string that no
    `context_key` call makes."""
    try:
        doc = json.loads(key.rpartition("|")[0])
        return Signature((entry["name"], entry["arity"]) for entry in doc["signature"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{key!r} is not a context key: {exc}") from None


def tuple_pattern(tup: Sequence[int]) -> tuple[int, ...]:
    """Equality pattern: dense ids in order of first occurrence, from 0."""
    seen: dict[int, int] = {}
    out = []
    for c in tup:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return tuple(out)


def _types(reference: Optional[Structure], tuples: Iterable[tuple[int, ...]], arity: int):
    """The type of each of `tuples`, all of length `arity`: its pattern and its
    context key over `reference` (None without one).  Types are memoized per
    reference signature (`DecisionContext._keys`) by content, read column by
    column from the member sets: which positions hold equal entries, and at
    which images of positions each relation holds.  Every tuple is checked to
    lie in the universe; only a new content calls `context_key`."""
    signature = None if reference is None else reference.signature
    memos = DecisionContext._keys
    if len(memos) >= 1 << 6 and signature not in memos:  # 64 signatures of 4,096 contents
        memos.clear()
    keys, n = memos.setdefault(signature, {}), float("inf") if reference is None else reference.n
    reads = [(partial(itertools.starmap, operator.eq), pair)
             for pair in itertools.combinations(range(arity), 2)]
    reads += [(partial(map, reference._members[name].__contains__), at) for name, size
              in signature or () for at in itertools.product(range(arity), repeat=size)]
    tuples, lows, highs, *streams = itertools.tee(tuples, 3 + len(reads))
    columns = [read(map(operator.itemgetter(*at), stream) if len(at) > 1
                    else zip(map(operator.itemgetter(*at), stream)))
               for (read, at), stream in zip(reads, streams)]
    lows, highs = ((map(min, lows), map(max, highs)) if arity  # an empty tuple has no entry
                   else (itertools.repeat(1), itertools.repeat(0)))
    for tup, low, high, content in zip(tuples, lows, highs, zip(itertools.repeat(arity), *columns)):
        if low < 1 or high > n:
            raise ValueError(f"tuple {tup} leaves the universe [1, {n}]")
        typ = keys.get(content)
        if typ is None:
            if len(keys) >= 1 << 12:
                keys.clear()
            elems = sorted(set(tup))
            typ = keys[content] = (tuple_pattern(tup), None if reference is None else context_key(
                restrict(reference, elems), tuple([elems.index(c) + 1 for c in tup])))
        yield typ


class DecisionContext:
    """Lazy view of everything a decision function may read for one tuple.

    Its context key is read on first use (`_types`).  Alone, it hands each
    draw to the source; in a sample, `drawn` holds the sets and the xi and
    ordering maps of `_bits`, and a set is drawn once, shared with tables.
    """

    __slots__ = ("source", "relation", "tuple", "partition", "context_mode", "reference",
                 "drawn", "_key")
    _keys: dict[Optional[Signature], dict[tuple, tuple]] = {}  # signature -> content -> type

    def __init__(self, source: HierarchicalRandomSource, relation: str,
                 tup: tuple[int, ...], partition: tuple[float, ...] = (),
                 context_mode: str = "none", reference: Optional[Structure] = None,
                 drawn: Optional[tuple["_Draws", dict, dict]] = None):
        self.source = source
        self.relation = relation
        self.tuple = tuple(tup)
        self.partition = tuple(partition)
        self.context_mode = context_mode
        self.reference = reference
        self.drawn = drawn
        self._key = None  # built on first use

    # -- coordinate selection -------------------------------------------------

    def elements(self, positions: Optional[Sequence[int]] = None) -> tuple[int, ...]:
        """Tuple entries at 1-based positions (all positions by default)."""
        if positions is None:
            return self.tuple
        for p in positions:
            if p < 1 or p > len(self.tuple):
                raise ValueError(f"position {p} out of range for arity {len(self.tuple)}")
        return tuple([self.tuple[p - 1] for p in positions])

    def subset(self, positions: Optional[Sequence[int]] = None) -> tuple[int, ...]:
        """Sorted distinct entries at the positions (the tuple's range by default)."""
        return tuple(sorted(set(self.elements(positions))))

    # -- randomness channels --------------------------------------------------

    def pattern(self) -> tuple[int, ...]:
        return tuple_pattern(self.tuple)

    def _draw(self, kind: int, elements: tuple[int, ...]):
        """xi (kind 1) or the ordering (kind 2) of the elements' set."""
        draw = (None, self.source.xi, self.source.ordering)[kind]
        if self.drawn is None:
            return draw(elements)
        d, drawn = self.drawn[0].id(None, elements), self.drawn[kind]
        if d not in drawn:
            drawn[d] = draw(self.drawn[0][d])
        return drawn[d]

    def xi(self, positions: Optional[Sequence[int]] = None) -> float:
        """The keyed draw of the selected entries' set."""
        return self._draw(1, self.elements(positions))

    def interval(self, positions: Optional[Sequence[int]] = None) -> int:
        """Index of the partition cell containing xi(positions)."""
        return bisect_right(self.partition, self.xi(positions))

    def ordering_ranks(self, positions: Optional[Sequence[int]] = None) -> tuple[int, ...]:
        """Ranks of the selected entries under the keyed ordering of their set."""
        entries = self.elements(positions)
        return induced_ordering(entries, self._draw(2, entries)).ranks

    # -- reference-structure channels ------------------------------------------

    def _reference(self, channel: str, modes: tuple[str, ...]) -> Structure:
        """The reference, for a channel that only the context `modes` may read."""
        if self.context_mode not in modes:
            raise ValueError(f"{channel} is unavailable in context mode {self.context_mode!r}")
        if self.reference is None:
            raise ValueError("no reference structure available in this context")
        return self.reference

    def restriction(self) -> Structure:
        """Reference structure restricted to the tuple's range, on [1, k]
        (memoized on the reference by `restrict`); not in mode `none`."""
        return restrict(self._reference("restriction", ("restriction", "segment")),
                        self.subset())

    def segment(self) -> Structure:
        """Reference structure's initial segment on [1, max entry], in mode
        `segment` only; `restrict` memoizes it on the reference."""
        return restrict(self._reference("segment", ("segment",)),
                        range(1, max(self.tuple) + 1))

    def context_key(self) -> str:
        """Canonical key of the reference restricted to the tuple's range,
        together with the tuple.

        Both `restriction` and `segment` mode key this view: the segment
        [1, max entry] restricted to the tuple's range is the same structure,
        and the restriction keeps keys small and isomorphism-invariant.

        It is read by content (`_types`), as a plan reads it, so a fresh
        reference reads back the keys of earlier ones of its signature.
        """
        if self._key is None:
            reference = self._reference("context_key", ("restriction", "segment"))
            self._key = next(_types(reference, [self.tuple], len(self.tuple)))[1]
        return self._key


class DecisionFunction:
    """One relation symbol's membership rule."""

    def __init__(self, relation: str, arity: int, context_mode: str = "none",
                 partition: Sequence[float] = ()):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if context_mode not in CONTEXT_MODES:
            raise ValueError(f"context mode must be one of {CONTEXT_MODES}")
        breakpoints = tuple(float(b) for b in partition)
        if any(not (0.0 < b < 1.0) for b in breakpoints):
            raise ValueError("partition breakpoints must lie strictly inside (0, 1)")
        if any(b1 >= b2 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise ValueError("partition breakpoints must increase strictly")
        self.relation = relation
        self.arity = arity
        self.context_mode = context_mode
        self.partition = breakpoints

    @property
    def num_intervals(self) -> int:
        return len(self.partition) + 1

    def decide(self, ctx: DecisionContext) -> bool:
        raise NotImplementedError


def _normalize_positions(key: Union[str, Sequence[int]], arity: int) -> tuple[int, ...]:
    if isinstance(key, str):
        try:
            parsed = json.loads(key)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad positions key {key!r}") from exc
    else:
        parsed = list(key)
    if not isinstance(parsed, list) or not all(isinstance(p, int) for p in parsed):
        raise ValueError(f"positions must be a list of integers, got {key!r}")
    positions = tuple(parsed)
    for p in positions:
        if p < 1 or p > arity:
            raise ValueError(f"position {p} out of range for arity {arity}")
    return positions


@dataclass(frozen=True)
class TableEntry:
    """One row of a table rule; all stated conditions must hold to match."""
    bit: bool
    pattern: Optional[tuple[int, ...]] = None
    context_key: Optional[str] = None
    thresholds: Optional[tuple[tuple[tuple[int, ...], frozenset], ...]] = None
    orderings: Optional[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]] = None

    def to_json(self) -> dict:
        out: dict = {"bit": int(self.bit)}
        if self.pattern is not None:
            out["pattern"] = list(self.pattern)
        if self.context_key is not None:
            out["context_key"] = self.context_key
        if self.thresholds is not None:
            out["thresholds"] = {json.dumps(list(positions)): sorted(allowed)
                                 for positions, allowed in self.thresholds}
        if self.orderings is not None:
            out["orderings"] = {json.dumps(list(positions)): list(ranks)
                                for positions, ranks in self.orderings}
        return out


class TableDecisionFunction(DecisionFunction):
    """Data-driven rule: first matching entry wins, else the default bit."""

    def __init__(self, relation: str, arity: int, entries: Sequence[TableEntry],
                 default: bool = False, context_mode: str = "none",
                 partition: Sequence[float] = ()):
        super().__init__(relation, arity, context_mode, partition)
        self.entries = tuple(self._checked(entry) for entry in entries)
        self.default = bool(default)
        self._entry_keys = {entry.context_key for entry in self.entries} - {None}
        self._templates: dict[tuple, tuple] = {}  # (pattern, an entry's key or None) -> entries

    def _checked(self, entry: TableEntry) -> TableEntry:
        """The entry, checked, with its positions as the tuples `matches` reads."""
        if entry.pattern is not None:
            if len(entry.pattern) != self.arity:
                raise ValueError("pattern length must equal the arity")
            expected = tuple_pattern(entry.pattern)
            if tuple(entry.pattern) != expected:
                raise ValueError(
                    f"pattern {entry.pattern} is not in dense first-occurrence form")
        if entry.context_key is not None and self.context_mode == "none":
            raise ValueError("context_key conditions need a context mode")
        for _positions, allowed in entry.thresholds or ():
            for idx in allowed:
                if not (0 <= idx < self.num_intervals):
                    raise ValueError(f"interval index {idx} out of range")
        def normalized(conditions):
            return conditions and tuple((_normalize_positions(list(positions), self.arity), value)
                                        for positions, value in conditions)
        return replace(entry, pattern=entry.pattern and tuple(entry.pattern),
                       thresholds=normalized(entry.thresholds),
                       orderings=normalized(entry.orderings))

    def template(self, pattern: tuple[int, ...], key: Optional[str]) -> tuple:
        """The entries that a tuple of this type lets fire, up to the first with
        no draw condition (kept by both), as (bit, ((indices, allowed cells),
        ...), ((indices, ranks), ...)), indices 0-based into the tuple and
        checked once, when the template is made."""
        key = (pattern, key if key in self._entry_keys else None)
        if key not in self._templates:
            matching = [entry for entry in self.entries
                        if entry.pattern in (None, pattern) and entry.context_key in (None, key[1])]
            cut = next((i for i, entry in enumerate(matching, 1)
                        if not (entry.thresholds or entry.orderings)), None)
            def indexed(conditions):
                return tuple((tuple([p - 1 for p in _normalize_positions(at, len(pattern))]), value)
                             for at, value in conditions or ())
            self._templates[key] = tuple([(entry.bit, indexed(entry.thresholds),
                                           indexed(entry.orderings)) for entry in matching[:cut]])
        return self._templates[key]

    def resolve(self, tuples: Iterable[tuple[int, ...]], draws: "_Draws", types: Iterable[tuple]):
        """Without drawing, each tuple's template, of its type (pattern, context
        key) in `types`, bound to it by indexing: (bit, ((draw id, allowed
        cells), ...), ((draw id, entries, ranks), ...)), each set labelled once
        in `draws`."""
        templates, keyed = self._templates, self._entry_keys
        for tup, (pattern, key) in zip(tuples, types):
            get, bound = tup.__getitem__, []
            template = templates.get((pattern, key if key in keyed else None))
            for bit, thresholds, orderings in template or self.template(pattern, key):
                drawn, ordered = [], []
                for at, allowed in thresholds:
                    drawn.append((draws.id(at, tuple(map(get, at))), allowed))
                for at, ranks in orderings:
                    elements = tuple(map(get, at))
                    ordered.append((draws.id(at, elements), elements, ranks))
                bound.append((bit, tuple(drawn), tuple(ordered)))
            yield tuple(bound)

    def decide(self, ctx: DecisionContext) -> bool:
        draws = _Draws()
        draws.by_positions = True
        types = [(ctx.pattern(), ctx.context_key() if self._entry_keys else None)]
        entries = next(self.resolve([ctx.tuple], draws, types))
        return next(_bits([(None, None, ctx.partition, self.default, entries)], ctx.source, draws))

    def to_json(self) -> dict:
        return {
            "relation": {"name": self.relation, "arity": self.arity},
            "context": self.context_mode,
            "partition": list(self.partition),
            "default": int(self.default),
            "entries": [entry.to_json() for entry in self.entries],
        }


class _Draws(dict):
    """The labelled sets that compiled steps draw on, by set, or for one
    decision by positions, as a context's channels draw."""

    by_positions = False

    def id(self, positions: Optional[tuple], elements: Sequence[int]) -> Union[frozenset, tuple]:
        key = positions if self.by_positions else frozenset(elements)
        if key not in self:
            self[key] = HierarchicalRandomSource._check(elements)
        return key


def _bits(steps: Iterable[tuple], src: HierarchicalRandomSource, sets: _Draws):
    """The bit of each step (relation, local tuple, partition, default, entries
    from `resolve`), or (relation, local tuple, context arguments, rule, None)
    for a function rule; each of the `sets` is drawn when first read, by a
    table entry or a function rule's context."""
    xis, orders = {}, {}
    for _, _, partition, bit, entries in steps:
        if entries is None:  # a function rule in the default's place
            bit = bit.decide(DecisionContext(src, *partition, drawn=(sets, xis, orders)))
        for value, thresholds, orderings in entries or ():
            for d, allowed in thresholds:
                u = xis.get(d)
                if u is None:
                    u = xis[d] = src.xi(sets[d])
                if bisect_right(partition, u) not in allowed:
                    break
            else:
                for d, elements, ranks in orderings:
                    drawn = orders.get(d)
                    if drawn is None:
                        drawn = orders[d] = src.ordering(sets[d])
                    if induced_ordering(elements, drawn).ranks != ranks:
                        break
                else:
                    bit = value
                    break
        yield bit


class FunctionDecisionFunction(DecisionFunction):
    """Rule computed by an arbitrary callable on the context."""

    def __init__(self, relation: str, arity: int,
                 fn: Callable[[DecisionContext], bool],
                 context_mode: str = "none", partition: Sequence[float] = ()):
        super().__init__(relation, arity, context_mode, partition)
        self._fn = fn

    def decide(self, ctx: DecisionContext) -> bool:
        return bool(self._fn(ctx))


# --- rule sets ----------------------------------------------------------------

def normalize_rules(rules: Union[DecisionFunction, Mapping[str, DecisionFunction],
                                 Iterable[DecisionFunction]]) -> dict[str, DecisionFunction]:
    """Accept one rule, a mapping, or an iterable; key by relation name."""
    if isinstance(rules, DecisionFunction):
        return {rules.relation: rules}
    if isinstance(rules, Mapping):
        out = dict(rules)
        for name, df in out.items():
            if df.relation != name:
                raise ValueError(f"rule for {df.relation!r} keyed as {name!r}")
        return out
    out = {}
    for df in rules:
        if df.relation in out:
            raise ValueError(f"duplicate rule for relation {df.relation!r}")
        out[df.relation] = df
    return out


def rules_signature(rules: Mapping[str, DecisionFunction]) -> Signature:
    return Signature(tuple((name, rules[name].arity) for name in sorted(rules)))


def _entry_from_json(obj: dict, arity: int) -> TableEntry:
    unknown = set(obj) - {"pattern", "context_key", "thresholds", "orderings", "bit"}
    if unknown:
        raise ValueError(f"unknown entry fields: {sorted(unknown)}")
    if "bit" not in obj:
        raise ValueError("entry is missing 'bit'")
    pattern = tuple(obj["pattern"]) if "pattern" in obj else None
    ck = obj.get("context_key")
    thresholds = None
    if "thresholds" in obj:
        items = []
        for key, allowed in obj["thresholds"].items():
            positions = _normalize_positions(key, arity)
            if isinstance(allowed, int):
                allowed = [allowed]
            items.append((positions, frozenset(int(a) for a in allowed)))
        thresholds = tuple(sorted(items))
    orderings = None
    if "orderings" in obj:
        items = []
        for key, ranks in obj["orderings"].items():
            positions = _normalize_positions(key, arity)
            items.append((positions, tuple(int(r) for r in ranks)))
        orderings = tuple(sorted(items))
    return TableEntry(bit=bool(obj["bit"]), pattern=pattern, context_key=ck,
                      thresholds=thresholds, orderings=orderings)


def _rule_from_json(obj: dict) -> TableDecisionFunction:
    unknown = set(obj) - {"relation", "context", "partition", "default", "entries"}
    if unknown:
        raise ValueError(f"unknown rule fields: {sorted(unknown)}")
    rel = obj.get("relation")
    if not isinstance(rel, dict) or "name" not in rel or "arity" not in rel:
        raise ValueError("rule needs relation: {name, arity}")
    name, arity = rel["name"], int(rel["arity"])
    entries = [_entry_from_json(e, arity) for e in obj.get("entries", [])]
    return TableDecisionFunction(
        relation=name, arity=arity, entries=entries,
        default=bool(obj.get("default", 0)),
        context_mode=obj.get("context", "none"),
        partition=tuple(obj.get("partition", ())))


def rules_from_json(obj: Union[dict, list]) -> dict[str, DecisionFunction]:
    """Parse a rule-set JSON object (one rule, a list, or {"rules": [...]})."""
    if isinstance(obj, dict) and "rules" in obj:
        obj = obj["rules"]
    if isinstance(obj, dict):
        obj = [obj]
    return normalize_rules([_rule_from_json(item) for item in obj])


def load_rules(path: str) -> dict[str, DecisionFunction]:
    with open(path, "r", encoding="utf-8") as fh:
        return rules_from_json(json.load(fh))

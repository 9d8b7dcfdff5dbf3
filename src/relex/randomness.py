"""Subset-keyed hierarchical randomness.

One logical random family per seed: a uniform value xi_s in [0,1) and a
uniform total order on s, for every finite subset s of the positive
integers.  Values are produced by a keyed pseudorandom function of
(seed, tag, sorted subset), so any two queries for the same subset agree
and queries for different subsets are independent for all practical
purposes.  Because nothing is consumed statefully, samplers built on this
source are exactly projective: restricting a size-n sample to [1, m]
reproduces the size-m sample bit for bit.

The byte contract, pinned by tests/golden/randomness.json:

  * the key is the seed mod 2^64 as 8 big-endian bytes;
  * block c of a draw is the 32-byte keyed blake2b of `tag|s#c`, with tag
    `xi` or `ord`, s the sorted subset as comma-separated decimals and c
    in decimal, counting from 0;
  * xi_s is the top 53 bits of the first 7 bytes of block 0, over 2^53;
  * the ordering shuffles the sorted subset by Fisher-Yates from the last
    position i down to 1: the draw for position i is the top
    k = bit_length(i) bits of the next ceil(k/8) bytes, read on from one
    block into the next; a draw above i is thrown away and read again, and
    the accepted draw j swaps positions i and j.

For a pair {a < b} the contract reads as one bit, never thrown away: the
ordering is (b, a) when byte 0 of block 0 is below 128, and (a, b) otherwise.

SeedStream keys the same way with its meta seed and hashes `seed|index`
to an 8-byte digest, read big-endian.

The sorted subset, its text and its draw labels are memoised per validated
subset of at most 8 elements (the elements as exact ints, after
`operator.index`), in a module-level cache of at most 1024 subsets shared
by all sources; every call on any other input still runs every input
check.  A subset labelled here (a `_Subset`, as `_check` returns it) is
drawn as it is: `xi` and `ordering` read its stored labels, `xi|s#0` and,
for the first block of an ordering, `ord|s#0`, and xi_s is read as the
first 8 bytes of block 0 shifted right by 11, the same 53 bits.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import struct
from typing import Iterable, Sequence

_MASK64 = (1 << 64) - 1
# Subsets longer than this are labelled afresh: memoised, each would pin its
# elements and text (about 3.5 MB for 65,548 elements) until evicted.  The
# frame-wise sampler draws on subsets of at most max(arity, locality)
# elements, 4 for the builtin classes, and rule samplers on tuples' entry sets.
_MEMO_MAX_LEN = 8
_TOP64 = struct.Struct(">Q").unpack_from  # a digest's first 8 bytes, big-endian


def _integer(value, what: str) -> int:
    """`value` through `operator.index`, so 2.7 or "5" raise instead of truncating."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


class _Subset(tuple):
    """A checked subset's sorted distinct elements, with its `text` and its draws' labels."""


def _labelled(ints: Iterable[int]) -> _Subset:
    """A subset of exact ints, checked, with its text and draw labels."""
    items = _Subset(sorted(set(ints)))
    if items and items[0] < 1:
        raise ValueError("subset elements must be positive integers")
    items.text = ",".join(map(str, items)).encode("ascii")
    items.xi, items.ord = b"xi|" + items.text + b"#0", b"ord|" + items.text + b"#"
    items.ord0 = items.ord + b"0"
    return items


# at most about 1 MB; keyed by `operator.index` results only, so (1.0, 2.0)
# hashes and compares equal to (1, 2)
_label = functools.lru_cache(maxsize=1024)(_labelled)


class HierarchicalRandomSource:
    """Deterministic per-seed family of per-subset uniforms and orders."""

    def __init__(self, seed: int):
        self.seed = (seed if type(seed) is int else _integer(seed, "seed")) & _MASK64
        # keyed once; every block hashes a copy
        self._hasher = hashlib.blake2b(key=self.seed.to_bytes(8, "big"), digest_size=32)

    @staticmethod
    def _check(subset: Iterable[int]) -> _Subset:
        if type(subset) is _Subset:
            return subset
        subset = tuple(subset)
        try:
            ints = tuple(map(operator.index, subset))
        except TypeError:
            bad = next(x for x in subset if not hasattr(type(x), "__index__"))
            raise ValueError(f"subset element {bad!r} is not an integer") from None
        return (_label if len(ints) <= _MEMO_MAX_LEN else _labelled)(ints)

    def xi(self, subset: Iterable[int] = ()) -> float:
        """Uniform [0,1) value attached to the subset; 53 random bits.

        The empty subset is always allowed and acts as the global mixing
        variable shared by the whole sample.
        """
        hasher = self._hasher.copy()
        hasher.update((subset if type(subset) is _Subset else self._check(subset)).xi)
        return (_TOP64(hasher.digest())[0] >> 11) / (1 << 53)

    def ordering(self, subset: Iterable[int]) -> tuple[int, ...]:
        """Uniform random total order on the subset.

        Returned as the subset's elements listed smallest-first in the
        drawn order; all |s|! orders are equally likely across seeds.
        """
        items = subset if type(subset) is _Subset else self._check(subset)
        if len(items) < 2:
            return tuple(items)
        block = self._hasher.copy()
        block.update(items.ord0)
        if len(items) == 2:  # one draw, i = k = 1: the top bit of byte 0, never thrown away
            return items[::-1] if block.digest()[0] < 128 else tuple(items)
        label, items = items.ord, list(items)
        buffer, used, counter, stem = block.digest(), 0, 1, None
        for i in range(len(items) - 1, 0, -1):
            k = i.bit_length()
            nbytes = (k + 7) >> 3
            while True:
                if used + nbytes > len(buffer):
                    if stem is None:  # absorbs `ord|s#` once for the later blocks
                        stem = self._hasher.copy()
                        stem.update(label)
                    block = stem.copy()
                    block.update(b"%d" % counter)
                    buffer, used = buffer[used:] + block.digest(), 0
                    counter += 1
                j = int.from_bytes(buffer[used:used + nbytes], "big") >> (-k % 8)
                used += nbytes
                if j <= i:
                    break
            items[i], items[j] = items[j], items[i]
        return tuple(items)


class InducedOrdering:
    """Strict partial order on the positions of a tuple, induced by a total
    order on its range.

    Position i precedes position j exactly when the i-th entry precedes the
    j-th entry; positions holding equal entries are incomparable, so a
    constant tuple induces the empty order.
    """

    __slots__ = ("_ranks",)

    def __init__(self, ranks: tuple[int, ...]):
        self._ranks = ranks

    @property
    def ranks(self) -> tuple[int, ...]:
        """Dense per-position ranks; equal rank means incomparable."""
        return self._ranks

    def precedes(self, i: int, j: int) -> bool:
        """1-based positions."""
        return self._ranks[i - 1] < self._ranks[j - 1]

    def pairs(self) -> frozenset[tuple[int, int]]:
        k = len(self._ranks)
        return frozenset((i, j) for i in range(1, k + 1) for j in range(1, k + 1)
                         if self.precedes(i, j))

    def __len__(self) -> int:
        return len(self._ranks)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InducedOrdering) and self._ranks == other._ranks

    def __hash__(self) -> int:
        return hash(self._ranks)

    def __repr__(self) -> str:
        return f"InducedOrdering(ranks={self._ranks})"


def induced_ordering(values: Sequence[int], order: Sequence[int]) -> InducedOrdering:
    """Order the positions of `values` by where their entries sit in `order`.

    `order` must be a total order of exactly the distinct entries of
    `values` (as produced by HierarchicalRandomSource.ordering).
    """
    distinct = set(values)
    if set(order) != distinct or len(order) != len(distinct):
        raise ValueError("order must cover exactly the distinct entries of the tuple")
    position = {v: r for r, v in enumerate(order)}
    raw = [position[v] for v in values]
    dense = {r: i for i, r in enumerate(sorted(set(raw)))}
    return InducedOrdering(tuple(dense[r] for r in raw))


def permutation_rank(perm: Sequence[int]) -> int:
    """Lexicographic rank of a permutation of [1, k] among all k! orders."""
    k = len(perm)
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError("not a permutation of [1, k]")
    rank = 0
    remaining = list(range(1, k + 1))
    for i, v in enumerate(perm):
        idx = remaining.index(v)
        rank = rank * (k - i) + idx
        remaining.pop(idx)
    return rank


class SeedStream:
    """Reproducible stream of 64-bit seeds derived from one meta-seed."""

    def __init__(self, meta_seed: int):
        self.meta_seed = _integer(meta_seed, "meta seed") & _MASK64
        self._hasher = hashlib.blake2b(key=self.meta_seed.to_bytes(8, "big"), digest_size=8)

    def __getitem__(self, index: int) -> int:
        hasher = self._hasher.copy()
        hasher.update(b"seed|%d" % (index if type(index) is int
                                    else _integer(index, "stream index")))
        return int.from_bytes(hasher.digest(), "big")

    def take(self, count: int, offset: int = 0) -> list[int]:
        return [self[offset + i] for i in range(count)]

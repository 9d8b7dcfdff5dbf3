"""Pin the keyed randomness byte for byte in randomness.json.

Run from the checkout root:

    PYTHONPATH=src python tests/golden/make_randomness_golden.py [--force]

For ten seeds it records `repr` of `HierarchicalRandomSource.xi` and the
list `HierarchicalRandomSource.ordering` returns, over subsets of every
small size (empty, singletons, pairs, triples, multi-digit elements) and
over sets of 30, 40 and 300 elements: the orderings of 30 and 40 elements
read past the first hash block, and the one of 300 elements makes 2-byte
reads and rejects draws.  Above 65536 elements a draw reads 3 bytes, and
such reads run on from one hash block into the next: the ordering of
65548 elements at seed 0 is pinned by the sha256 of its comma-separated
text.  It also records `SeedStream` values for a few meta seeds and indices.

tests/test_golden.py recomputes every record and compares it with the
file.  The file is generated once; regenerating it changes what the test
pins, so give the reason in CHANGES.md whenever you do.  The script
refuses to overwrite an existing file unless given --force.
"""

from __future__ import annotations

import json
import sys
from hashlib import sha256
from pathlib import Path

from relex.randomness import HierarchicalRandomSource, SeedStream

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "randomness.json"
SEEDS = (0, 1, 2, 3, 7, 42, 12345, 2 ** 32 + 1, 2 ** 63, 2 ** 64 - 1)
SUBSETS = ((), (1,), (2,), (7,), (1, 2), (2, 5), (9, 10), (1, 2, 3), (3, 8, 9),
           (10, 11, 100), tuple(range(1, 31)), tuple(range(1, 41)),
           tuple(range(1, 301)))
LARGE = tuple(range(1, 65549))
META_SEEDS = (0, 1, 123, 2 ** 64 - 1)
STREAM_INDICES = tuple(range(10)) + (1000, 2 ** 40)


def label(subset: tuple[int, ...]) -> str:
    """`1,2,3`, or `1..k` for the long initial segments."""
    if len(subset) > 3 and subset == tuple(range(1, len(subset) + 1)):
        return f"1..{len(subset)}"
    return ",".join(map(str, subset)) or "empty"


def compute() -> dict:
    """Every record, keyed by kind, then seed, then subset or index."""
    xi, ordering = {}, {}
    for seed in SEEDS:
        src = HierarchicalRandomSource(seed)
        xi[f"seed{seed}"] = {label(s): repr(src.xi(s)) for s in SUBSETS}
        ordering[f"seed{seed}"] = {label(s): list(src.ordering(s)) for s in SUBSETS}
    large = ",".join(map(str, HierarchicalRandomSource(0).ordering(LARGE)))
    streams = {f"meta{meta}": {str(i): SeedStream(meta)[i] for i in STREAM_INDICES}
               for meta in META_SEEDS}
    return {"xi": xi, "ordering": ordering, "seed_stream": streams,
            "ordering_sha256": {f"seed0/{label(LARGE)}": sha256(large.encode()).hexdigest()}}


def main() -> None:
    if GOLDEN.exists() and "--force" not in sys.argv[1:]:
        sys.exit(f"{GOLDEN} exists; pass --force to overwrite it")
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()

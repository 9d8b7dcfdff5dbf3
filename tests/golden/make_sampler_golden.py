"""Pin the samplers' outputs in samplers.json.

Run from the checkout root:

    PYTHONPATH=src python tests/golden/make_sampler_golden.py

For seeds 0-9 and n in {0, 1, 3, 6} it records the sha256 of
`serialize(sample)` for `sample_framewise` over every builtin class, for
frame-wise graphs with `rep_weights=(1, 3)`, for `LoopViolatorSampler`, and
for every named example drawn through `catalog.paper_example`.  Where a
frame-wise sample raises AmalgamationFailure, the record holds the failure's
subset and serialized family instead.

tests/test_golden.py recomputes every case and compares it with the file.
The file is generated once; regenerating it changes what the test pins,
so give the reason in CHANGES.md whenever you do.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from relex.amalgamation import BUILTIN_CLASS_NAMES, make_builtin_class
from relex.catalog import PAPER_EXAMPLE_NAMES, LoopViolatorSampler, paper_example
from relex.randomness import HierarchicalRandomSource
from relex.samplers import AmalgamationFailure, sample_framewise
from relex.structures import serialize

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "samplers.json"
SEEDS = tuple(range(10))
SIZES = (0, 1, 3, 6)


def samplers():
    """(label, draw) pairs; draw(src, n) returns one sample."""
    out = [(f"framewise/{name}",
            lambda src, n, klass=make_builtin_class(name): sample_framewise(klass, n, src))
           for name in BUILTIN_CLASS_NAMES]
    graphs = make_builtin_class("graphs")
    out.append(("framewise/graphs/rep_weights=1,3",
                lambda src, n: sample_framewise(graphs, n, src, rep_weights=(1, 3))))
    violator = LoopViolatorSampler()
    out.append(("loop-violator", lambda src, n: violator.sample(src, n)))
    out += [(f"example/{name}", lambda src, n, name=name: paper_example(name, n, src)[1])
            for name in PAPER_EXAMPLE_NAMES]
    return out


def compute(draw) -> dict:
    """The records of one sampler, keyed `seed<s>/n<n>`."""
    records = {}
    for seed in SEEDS:
        for n in SIZES:
            try:
                sample = draw(HierarchicalRandomSource(seed), n)
            except AmalgamationFailure as failure:
                record = {"failure": {"subset": list(failure.subset),
                                      "family": [serialize(s) for s in failure.family]}}
            else:
                record = {"sha256": hashlib.sha256(serialize(sample).encode()).hexdigest()}
            records[f"seed{seed}/n{n}"] = record
    return records


def main() -> None:
    golden = {label: compute(draw) for label, draw in samplers()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} samplers to {GOLDEN}")


if __name__ == "__main__":
    main()

"""Pin the samplers' outputs in samplers.json.

Run from the checkout root:

    PYTHONPATH=src python tests/golden/make_sampler_golden.py [--force]

For seeds 0-9 and n in {0, 1, 3, 6} it records the sha256 of
`serialize(sample)` for `sample_framewise` over every builtin class, for
frame-wise graphs with `rep_weights=(1, 3)`, for `LoopViolatorSampler`, and
for every named example drawn through `catalog.paper_example`.  Where a
frame-wise sample raises AmalgamationFailure, the record holds the failure's
subset and serialized family instead: the first subset with no amalgam in
the sampler's visiting order, colex (largest point, size, entries), which
names the same subset at every size that reaches it.

The rule samplers are pinned at n in {0, 1, 3, 6, 10}, so that segment
restrictions of a large reference are covered: `ExchangeableSampler` over
rules/random_graph.json, tournament.json and complete.json;
`MExchangeableSampler` over rules/two_coin.json and two_coin_mixed.json with
the evens oracle (as the CLI pairs them) and over rules/parity_xor.json with
the per-seed parity-overlay oracle (as the catalog pairs it); and
`MaxSegSampler` over `catalog.weak_rep_rules()` with the same-class-triple
oracle.

`sample_sequential` is pinned at n in {0, 1, 3, 6} over the evens oracle,
with an age-indexed law of fixed tables built here (`sequential_law`):
independent coins, 0.3 on odd and 0.7 on even positions, tabulated exactly
for every initial segment of the reference up to size 6.

tests/test_golden.py recomputes every case and compares it with the file.
The file is generated once; regenerating it changes what the test pins,
so give the reason in CHANGES.md whenever you do.  The script refuses to
overwrite an existing file unless given --force.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

from relex.amalgamation import BUILTIN_CLASS_NAMES, make_builtin_class
from relex.catalog import (PAPER_EXAMPLE_NAMES, LoopViolatorSampler, evens_oracle,
                           paper_example, parity_overlay_oracle, same_class_triple_oracle,
                           weak_rep_rules)
from relex.randomness import HierarchicalRandomSource
from relex.rules import load_rules
from relex.samplers import (AgeIndexedLaw, AmalgamationFailure, ExchangeableSampler,
                            MaxSegSampler, MExchangeableSampler, sample_framewise,
                            sample_sequential)
from relex.structures import UNARY_SIGNATURE, Structure, serialize

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "samplers.json"
RULES = HERE.parent.parent / "rules"
SEEDS = tuple(range(10))
SIZES = (0, 1, 3, 6)
RULE_SIZES = SIZES + (10,)


def rule_samplers():
    """(label, draw) pairs for the rule samplers, pinned at RULE_SIZES."""
    out = [(f"exchangeable/{name}",
            lambda src, n, s=ExchangeableSampler(load_rules(str(RULES / name))): s.sample(src, n))
           for name in ("random_graph.json", "tournament.json", "complete.json")]
    out += [(f"m-exch/{name}/evens",
             lambda src, n, s=MExchangeableSampler(load_rules(str(RULES / name)),
                                                   evens_oracle()): s.sample(src, n))
            for name in ("two_coin.json", "two_coin_mixed.json")]
    parity = load_rules(str(RULES / "parity_xor.json"))
    out.append(("m-exch/parity_xor.json/parity-overlay",
                lambda src, n: MExchangeableSampler(
                    parity, parity_overlay_oracle(src)).sample(src, n)))
    weak_rep = MaxSegSampler(weak_rep_rules(), same_class_triple_oracle())
    out.append(("maxseg/weak-rep/same-class-triple", weak_rep.sample))
    return out


def sequential_law(cap: int) -> AgeIndexedLaw:
    """Coins with P(i) = 0.3 for odd i and 0.7 for even i, one exact table
    per initial segment of the evens reference, sizes 1 to cap."""
    law = AgeIndexedLaw(UNARY_SIGNATURE, cap)
    evens = evens_oracle()
    for m in range(1, cap + 1):
        thetas = [0.7 if i % 2 == 0 else 0.3 for i in range(1, m + 1)]
        table = {}
        for bits in itertools.product((0, 1), repeat=m):
            outcome = Structure(UNARY_SIGNATURE, m,
                                {"P": [(i,) for i, bit in enumerate(bits, start=1) if bit]})
            table[outcome] = math.prod(t if bit else 1.0 - t for t, bit in zip(thetas, bits))
        law.add_table(evens.initial_segment(m), table)
    return law


def samplers():
    """(label, draw, sizes) triples; draw(src, n) returns one sample."""
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
    coins = sequential_law(max(SIZES))
    out.append(("sequential/coins-0.3-0.7/evens",
                lambda src, n: sample_sequential(coins, evens_oracle(), n, src)))
    return ([(label, draw, SIZES) for label, draw in out]
            + [(label, draw, RULE_SIZES) for label, draw in rule_samplers()])


def compute(draw, sizes=SIZES) -> dict:
    """The records of one sampler, keyed `seed<s>/n<n>`."""
    records = {}
    for seed in SEEDS:
        for n in sizes:
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
    if GOLDEN.exists() and "--force" not in sys.argv[1:]:
        sys.exit(f"{GOLDEN} exists; pass --force to overwrite it")
    golden = {label: compute(draw, sizes) for label, draw, sizes in samplers()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} samplers to {GOLDEN}")


if __name__ == "__main__":
    main()

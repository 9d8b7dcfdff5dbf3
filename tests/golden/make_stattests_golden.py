"""Pin the chi-square reports byte for byte in stattests.json.

Run from the checkout root:

    PYTHONPATH=src python tests/golden/make_stattests_golden.py [--force]

Each record is `json.dumps(report.to_json())` without `sort_keys`, so the
order of the keys in a report and in its `details` is pinned as well as
every value.  The cases:

- `test_exchangeability` on frame-wise graphs and tournaments at n = 3,
  on the loop violator (a failing family), on frame-wise graphs at n = 4
  with an explicit permutation list, and at n = 1 (no probes);
- `test_relative_exchangeability` of the two-coin and mixed two-coin
  samplers over the evens oracle, of the two-coin sampler cut short by
  `probe_cap`, of `TdcSampler` over the odd-target oracle, and a case
  whose window holds no embedding (no probes, two skipped pairs);
- `test_dissociation` of the two-coin and mixed two-coin samplers, and of
  the complete-graph rules (one cell, dof 0);
- the CLI's `test equal` path: `empirical_law` of each sampler at stream
  offsets 0 and N, then `test_equal_law`, for frame-wise graphs against
  the random-graph rules and against the loop violator (both fail), and
  for a one-cell pair (dof 0).

tests/test_golden.py recomputes every record and compares it with the
file.  The file is generated once; regenerating it changes what the test
pins, so give the reason in CHANGES.md whenever you do.  The script
refuses to overwrite an existing file unless given --force.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from relex import stattests as st
from relex.amalgamation import builtin_class
from relex.catalog import (LoopViolatorSampler, TdcSampler, complete_graph_rules,
                           evens_oracle, mixed_two_coin_rules, odd_target_oracle,
                           random_graph_rules, two_coin_rules)
from relex.samplers import ExchangeableSampler, FramewiseSampler, MExchangeableSampler

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "stattests.json"


def _framewise(name: str) -> FramewiseSampler:
    return FramewiseSampler(builtin_class(name))


def _two_coin() -> MExchangeableSampler:
    return MExchangeableSampler(two_coin_rules(), evens_oracle())


def _mixed_two_coin() -> MExchangeableSampler:
    return MExchangeableSampler(mixed_two_coin_rules(), evens_oracle())


def _equal(sampler_a, sampler_b, subset, n_samples, meta_seed):
    """`relex test equal`: batch b starts where batch a ends in one stream."""
    law_a = st.empirical_law(sampler_a, subset, n_samples, meta_seed, offset=0)
    law_b = st.empirical_law(sampler_b, subset, n_samples, meta_seed, offset=n_samples)
    return st.test_equal_law(law_a, law_b)


def cases():
    """(label, run) pairs; run() returns one TestReport."""
    return [
        ("exch/framewise-graphs/n3",
         lambda: st.test_exchangeability(_framewise("graphs"), 3, 200, meta_seed=1)),
        ("exch/framewise-tournaments/n3",
         lambda: st.test_exchangeability(_framewise("tournaments"), 3, 200, meta_seed=2)),
        ("exch/loop-violator/n3",
         lambda: st.test_exchangeability(LoopViolatorSampler(), 3, 200, meta_seed=3)),
        ("exch/framewise-graphs/n4/explicit",
         lambda: st.test_exchangeability(_framewise("graphs"), 4, 150, meta_seed=4,
                                         permutations=[(2, 1, 3, 4), (1, 3, 4, 2),
                                                       (4, 3, 2, 1)])),
        ("exch/framewise-graphs/n1",
         lambda: st.test_exchangeability(_framewise("graphs"), 1, 50, meta_seed=5)),
        ("rel-exch/two-coin/evens",
         lambda: st.test_relative_exchangeability(_two_coin(), evens_oracle(), 2, 100,
                                                  meta_seed=6)),
        ("rel-exch/two-coin/evens/probe_cap=7",
         lambda: st.test_relative_exchangeability(_two_coin(), evens_oracle(), 2, 100,
                                                  meta_seed=7, probe_cap=7)),
        ("rel-exch/mixed-two-coin/evens",
         lambda: st.test_relative_exchangeability(_mixed_two_coin(), evens_oracle(), 2, 100,
                                                  meta_seed=8)),
        ("rel-exch/tdc/odd-target",
         lambda: st.test_relative_exchangeability(TdcSampler(), odd_target_oracle(), 1, 150,
                                                  window=4, meta_seed=9)),
        ("rel-exch/two-coin/evens/no-probes",
         lambda: st.test_relative_exchangeability(_two_coin(), evens_oracle(), 1, 100,
                                                  window=2, meta_seed=10)),
        ("dissoc/two-coin",
         lambda: st.test_dissociation(_two_coin(), (1, 2), (3, 4), 300, meta_seed=11)),
        ("dissoc/mixed-two-coin",
         lambda: st.test_dissociation(_mixed_two_coin(), (1, 3), (2, 4), 300, meta_seed=12)),
        ("dissoc/complete",
         lambda: st.test_dissociation(ExchangeableSampler(complete_graph_rules()),
                                      (1, 2), (3, 4), 50, meta_seed=13)),
        ("equal/framewise-graphs/random-graph",
         lambda: _equal(_framewise("graphs"), ExchangeableSampler(random_graph_rules()),
                        (1, 2, 3), 300, 14)),
        ("equal/framewise-graphs/loop-violator",
         lambda: _equal(_framewise("graphs"), LoopViolatorSampler(), (1, 2), 300, 15)),
        ("equal/complete/complete",
         lambda: _equal(ExchangeableSampler(complete_graph_rules()),
                        ExchangeableSampler(complete_graph_rules()), (1, 2, 3), 40, 16)),
    ]


def compute(run) -> str:
    """One report as JSON text, keys in the order the report builds them."""
    return json.dumps(run().to_json())


def main() -> None:
    if GOLDEN.exists() and "--force" not in sys.argv[1:]:
        sys.exit(f"{GOLDEN} exists; pass --force to overwrite it")
    golden = {label: compute(run) for label, run in cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} reports to {GOLDEN}")


if __name__ == "__main__":
    main()

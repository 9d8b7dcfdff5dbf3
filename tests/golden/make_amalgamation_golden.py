"""Pin the amalgamation checkers' verdicts and witnesses in amalgamation.json.

Run from the checkout root:

    PYTHONPATH=src python tests/golden/make_amalgamation_golden.py [--force]

For every builtin class, and every theories/*.th class built as
`from_theory(theory, cap=4)`, it records `check_ndap` at n = 2-4 (and n = 5
for builtins), `check_dap` at bound 1 and 2, and `check_jep` at bound 1
and 2.  Each record holds the verdict and the serialized witnesses: the
n-DAP family, the JEP pair, and the DAP counterexample with its two maps.
Cases in SKIPPED take well over a second and are left out.

tests/test_golden.py recomputes every case and compares it with the file.
The file is generated once; regenerating it changes what the test pins,
so give the reason in CHANGES.md whenever you do.  The script refuses to
overwrite an existing file unless given --force.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from relex.amalgamation import (BUILTIN_CLASS_NAMES, check_dap, check_jep,
                                check_ndap, from_theory, make_builtin_class)
from relex.structures import serialize
from relex.theory import load_theory

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "amalgamation.json"
THEORIES = sorted((HERE.parent.parent / "theories").glob("*.th"))

# (class label, check, argument): digraphs 5-DAP searches for about 40 s.
SKIPPED = {("digraphs", "ndap", 5)}


def _serialized(structures):
    return None if structures is None else [serialize(s) for s in structures]


def _record(kind: str, report) -> dict:
    if kind == "ndap":
        return {"holds": report.holds,
                "witness_family": _serialized(report.witness_family)}
    if kind == "jep":
        return {"holds": report.holds,
                "witness_pair": _serialized(report.witness_pair)}
    cx = report.counterexample
    return {"holds": report.holds,
            "ndap": _record("ndap", report.ndap),
            "counterexample": None if cx is None else {
                "s": cx["s"], "t": cx["t"], "t_prime": cx["t_prime"],
                "phi": cx["phi"], "phi_prime": cx["phi_prime"]}}


_CHECKS = {"ndap": check_ndap, "dap": check_dap, "jep": check_jep}


def cases():
    """(case id, class factory, check, argument) for every pinned case."""
    factories = [(name, lambda name=name: make_builtin_class(name), (2, 3, 4, 5))
                 for name in BUILTIN_CLASS_NAMES]
    factories += [(path.name, lambda path=path: from_theory(load_theory(str(path)), cap=4),
                   (2, 3, 4))
                  for path in THEORIES]
    out = []
    for label, factory, ns in factories:
        checks = ([("ndap", n) for n in ns] + [("dap", b) for b in (1, 2)]
                  + [("jep", b) for b in (1, 2)])
        out.extend((f"{label}/{kind}/{arg}", factory, kind, arg)
                   for kind, arg in checks if (label, kind, arg) not in SKIPPED)
    return out


def compute(factory, kind: str, arg: int) -> dict:
    """The record of one case, on a freshly built class, as JSON reads it back."""
    return json.loads(json.dumps(_record(kind, _CHECKS[kind](factory(), arg))))


def main() -> None:
    if GOLDEN.exists() and "--force" not in sys.argv[1:]:
        sys.exit(f"{GOLDEN} exists; pass --force to overwrite it")
    golden = {case_id: compute(factory, kind, arg)
              for case_id, factory, kind, arg in cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")


if __name__ == "__main__":
    main()

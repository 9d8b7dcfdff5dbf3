"""The amalgamation checkers against the pinned corpus in tests/golden/.

tests/golden/make_amalgamation_golden.py wrote amalgamation.json once; every
case is recomputed here and must match byte for byte after JSON.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_amalgamation_golden", GOLDEN_DIR / "make_amalgamation_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()
GOLDEN = json.loads((GOLDEN_DIR / "amalgamation.json").read_text())
CASES = GENERATOR.cases()


def test_golden_covers_every_case():
    assert sorted(case_id for case_id, *_ in CASES) == sorted(GOLDEN)
    # the corpus pins failing verdicts too, not only `holds`
    assert not GOLDEN["equivalence/ndap/3"]["holds"]
    assert not GOLDEN["parity3/ndap/4"]["holds"]


@pytest.mark.parametrize("case_id, factory, kind, arg", CASES,
                         ids=[case[0] for case in CASES])
def test_amalgamation_matches_golden(case_id, factory, kind, arg):
    assert GENERATOR.compute(factory, kind, arg) == GOLDEN[case_id]

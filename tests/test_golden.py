"""The amalgamation checkers, the samplers and the keyed randomness against
the pinned corpus in tests/golden/.

tests/golden/make_amalgamation_golden.py wrote amalgamation.json once,
tests/golden/make_sampler_golden.py wrote samplers.json and
tests/golden/make_randomness_golden.py wrote randomness.json; every case is
recomputed here and must match byte for byte after JSON.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_generator(name: str):
    spec = importlib.util.spec_from_file_location(name, GOLDEN_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator("make_amalgamation_golden")
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


SAMPLER_GENERATOR = _load_generator("make_sampler_golden")
SAMPLER_GOLDEN = json.loads((GOLDEN_DIR / "samplers.json").read_text())
SAMPLERS = SAMPLER_GENERATOR.samplers()


def test_sampler_golden_covers_every_sampler():
    assert sorted(label for label, *_ in SAMPLERS) == sorted(SAMPLER_GOLDEN)
    # the corpus pins amalgamation failures too, not only digests
    assert any("failure" in r for r in SAMPLER_GOLDEN["framewise/equivalence"].values())
    assert any("failure" in r for r in SAMPLER_GOLDEN["framewise/parity3"].values())


@pytest.mark.parametrize("label, draw, sizes", SAMPLERS,
                         ids=[label for label, *_ in SAMPLERS])
def test_sampler_matches_golden(label, draw, sizes):
    assert SAMPLER_GENERATOR.compute(draw, sizes) == SAMPLER_GOLDEN[label]


RANDOMNESS_GENERATOR = _load_generator("make_randomness_golden")
RANDOMNESS_GOLDEN = json.loads((GOLDEN_DIR / "randomness.json").read_text())


def test_randomness_matches_golden():
    assert RANDOMNESS_GENERATOR.compute() == RANDOMNESS_GOLDEN

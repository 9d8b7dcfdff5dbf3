"""The amalgamation checkers, the samplers, the keyed randomness, the
chi-square reports and the command line against the pinned corpus in
tests/golden/.

tests/golden/make_amalgamation_golden.py wrote amalgamation.json once,
tests/golden/make_sampler_golden.py wrote samplers.json,
tests/golden/make_randomness_golden.py wrote randomness.json,
tests/golden/make_stattests_golden.py wrote stattests.json and
tests/golden/make_cli_golden.py wrote cli.json; every case is recomputed
here and must match byte for byte after JSON.
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


STATTESTS_GENERATOR = _load_generator("make_stattests_golden")
STATTESTS_GOLDEN = json.loads((GOLDEN_DIR / "stattests.json").read_text())
REPORTS = STATTESTS_GENERATOR.cases()


def test_stattests_golden_covers_every_report():
    assert sorted(label for label, _ in REPORTS) == sorted(STATTESTS_GOLDEN)
    # failing, zero-probe, truncated and dof-0 reports are pinned too
    verdicts = {label: json.loads(text) for label, text in STATTESTS_GOLDEN.items()}
    assert verdicts["exch/loop-violator/n3"]["verdict"] == "fail"
    assert verdicts["rel-exch/two-coin/evens/no-probes"]["details"]["probes"] == 0
    assert verdicts["rel-exch/two-coin/evens/probe_cap=7"]["details"]["probes"] == 7
    assert verdicts["dissoc/complete"]["dof"] == 0


@pytest.mark.parametrize("label, run", REPORTS, ids=[label for label, _ in REPORTS])
def test_report_matches_golden(label, run):
    assert STATTESTS_GENERATOR.compute(run) == STATTESTS_GOLDEN[label]


CLI_GENERATOR = _load_generator("make_cli_golden")
CLI_GOLDEN = json.loads((GOLDEN_DIR / "cli.json").read_text())
CLI_LINES = CLI_GENERATOR.command_lines()


def test_cli_golden_covers_every_command_line():
    assert sorted(CLI_LINES) == sorted(CLI_GOLDEN)
    # failures and usage errors are pinned too, not only exit code 0
    assert {record["exit"] for record in CLI_GOLDEN.values()} == {0, 1, 2}
    assert "amalgamation-failure" in CLI_GOLDEN[
        "--json sample framewise --class equivalence --n 3 --seed 0"]["stdout"]


@pytest.mark.parametrize("command_line", CLI_LINES)
def test_cli_matches_golden(command_line):
    assert CLI_GENERATOR.compute(command_line) == CLI_GOLDEN[command_line]

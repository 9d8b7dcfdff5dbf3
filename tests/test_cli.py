"""End-to-end command-line tests driven through subprocess."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import relex
from relex.structures import Signature, Structure, deserialize, restrict, serialize

GRAPH_SIG = Signature((("E", 2),))
# the subprocess imports the same relex as the tests, installed or not
RELEX_PARENT = str(Path(relex.__file__).resolve().parent.parent)


def run_cli(*args, env=None, cwd=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [RELEX_PARENT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "relex", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


# --- check ------------------------------------------------------------------------

def test_check_ndap_graphs_holds():
    result = run_cli("check", "ndap", "--class", "graphs", "--n", "3")
    assert result.returncode == 0
    assert "holds" in result.stdout


def test_check_ndap_equivalence_fails_with_witness():
    result = run_cli("check", "ndap", "--class", "equivalence", "--n", "3")
    assert result.returncode == 1
    assert "FAILS" in result.stdout
    assert "slot 1:" in result.stdout and "slot 3:" in result.stdout


def test_check_ndap_json_shape():
    result = run_cli("--json", "check", "ndap", "--class", "equivalence", "--n", "3")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert set(payload) == {"n", "holds", "method", "witness_family"}
    assert payload["holds"] is False
    assert len(payload["witness_family"]) == 3


def test_check_ndap_reports_how_the_verdict_was_reached():
    # digraphs: arity 2, locality 1, so 3-DAP holds by locality; 2-DAP is searched
    result = run_cli("--json", "check", "ndap", "--class", "digraphs", "--n", "3")
    assert result.returncode == 0
    assert json.loads(result.stdout)["method"] == "locality"
    result = run_cli("check", "ndap", "--class", "digraphs", "--n", "2")
    assert result.returncode == 0
    assert "holds (by search)" in result.stdout


def test_check_dap_and_jep_graphs():
    assert run_cli("check", "dap", "--class", "graphs").returncode == 0
    assert run_cli("check", "jep", "--class", "graphs").returncode == 0


def test_check_dap_hypergraphs3_at_bound_3_holds():
    # size-6 layouts with more than 20 free tuples once scanned 2^20 members and exited 2
    result = run_cli("check", "dap", "--class", "hypergraphs3", "--bound", "3")
    assert result.returncode == 0, result.stderr
    assert "holds" in result.stdout


def test_check_unknown_class_is_usage_error():
    result = run_cli("check", "ndap", "--class", "nosuch")
    assert result.returncode == 2
    assert "unknown class" in result.stderr


def test_check_and_theory_reject_options_the_kind_does_not_read():
    for command, message in (
            (("check", "jep", "--class", "graphs", "--n", "9", "--bound", "1"),
             "check jep does not read --n"),
            (("check", "ndap", "--class", "graphs", "--n", "3", "--bound", "7"),
             "check ndap does not read --bound"),
            (("theory", "check", "theories/graphs.th", "--n", "5"),
             "theory check does not read --n")):
        result = run_cli(*command)
        assert result.returncode == 2, command
        assert message in result.stderr, command


def test_check_cap_out_of_range():
    """--cap on every subcommand that takes it, and --alpha and --N of test."""
    test_exch = ("test", "exch", "--sampler", "framewise:graphs")
    cases = [(command, "--cap", cap, "cap must lie in [1, 8]")
             for command in (("check", "ndap", "--class", "graphs"),
                             ("age", "--class", "graphs", "--n", "3"),
                             ("sample", "framewise", "--class", "graphs", "--n", "3"),
                             test_exch)
             for cap in ("9", "0")]
    cases += [(test_exch, "--alpha", alpha, "alpha must lie in (0, 1)")
              for alpha in ("0", "1", "1.5", "nan")]
    cases += [(test_exch, "--N", count, "sample count must be >= 1") for count in ("0", "-1")]
    for command, flag, value, message in cases:
        result = run_cli(*command, flag, value)
        assert result.returncode == 2, (command, flag, value)
        assert message in result.stderr, (command, flag, value)


def test_check_theory_file_as_class():
    result = run_cli("check", "ndap", "--class", "theories/graphs.th", "--n", "3")
    assert result.returncode == 0


# --- age --------------------------------------------------------------------------

def test_age_counts_graphs():
    result = run_cli("--json", "age", "--class", "graphs", "--n", "3")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["count"] == 8
    assert len(payload["members"]) == 8


def test_age_of_parity3_at_six():
    # built from the 2^10 graphs on [2, 6], not filtered from 2^20 hypergraphs
    result = run_cli("--json", "age", "--class", "parity3", "--n", "6")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["count"] == 1024


def test_age_of_a_theory_with_a_deep_search(tmp_path):
    # 6^4 = 1,296 ground tuples at the default cap, one search level each
    path = tmp_path / "r4.th"
    path.write_text("rel R/4; forall x y z w . !R(x,y,z,w);\n", encoding="utf-8")
    result = run_cli("--json", "age", "--class", str(path), "--n", "6")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["count"] == 1


# --- theory -----------------------------------------------------------------------

def test_theory_check_parametric():
    result = run_cli("--json", "theory", "check", "theories/graphs.th")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["parametric"] is True
    assert payload["offending_atom"] is None


def test_theory_check_non_parametric_reports_atom():
    result = run_cli("--json", "theory", "check", "theories/equivalence.th")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["parametric"] is False
    assert payload["offending_atom"]["text"] == "E(x,y)"
    assert payload["offending_atom"]["line"] > 0


def test_theory_models_count():
    result = run_cli("--json", "theory", "models", "theories/graphs.th", "--n", "2")
    assert result.returncode == 0
    assert json.loads(result.stdout)["count"] == 2


def test_theory_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.th"
    bad.write_text("rel E/2;\nforall x . E(x x);\n")
    result = run_cli("theory", "check", str(bad))
    assert result.returncode == 2
    assert "theory parse error" in result.stderr


def test_theory_missing_file_is_input_error():
    result = run_cli("theory", "check", "no/such/file.th")
    assert result.returncode == 2


# --- sample -----------------------------------------------------------------------

def test_sample_framewise_deterministic():
    first = run_cli("sample", "framewise", "--class", "graphs", "--n", "4",
                    "--seed", "9")
    second = run_cli("sample", "framewise", "--class", "graphs", "--n", "4",
                     "--seed", "9")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    structure = deserialize(first.stdout.strip())
    assert structure.n == 4


def test_sample_framewise_projective_across_sizes():
    big = run_cli("--json", "sample", "framewise", "--class", "graphs",
                  "--n", "4", "--seed", "9")
    small = run_cli("--json", "sample", "framewise", "--class", "graphs",
                    "--n", "3", "--seed", "9")
    big_structure = deserialize(json.dumps(json.loads(big.stdout)["structure"]))
    small_structure = deserialize(json.dumps(json.loads(small.stdout)["structure"]))
    assert restrict(big_structure, (1, 2, 3)) == small_structure


def test_sample_seed_from_environment(tmp_path):
    import os
    env = dict(os.environ, RELEX_SEED="9")
    from_env = run_cli("sample", "framewise", "--class", "graphs", "--n", "4",
                       env=env)
    explicit = run_cli("sample", "framewise", "--class", "graphs", "--n", "4",
                       "--seed", "9")
    assert from_env.stdout == explicit.stdout
    env["RELEX_SEED"] = "not-a-number"
    result = run_cli("sample", "framewise", "--class", "graphs", "--n", "2",
                     env=env)
    assert result.returncode == 2


def test_sample_exchangeable_rules_file():
    result = run_cli("sample", "exchangeable", "--rules", "rules/random_graph.json",
                     "--n", "3", "--seed", "5")
    assert result.returncode == 0
    structure = deserialize(result.stdout.strip())
    for i, j in structure.tuples("E"):
        assert i != j
        assert structure.has("E", (j, i))


def test_sample_m_exch_and_maxseg():
    m_exch = run_cli("sample", "m-exch", "--rules", "rules/two_coin.json",
                     "--ref", "evens", "--n", "4", "--seed", "3")
    assert m_exch.returncode == 0
    maxseg = run_cli("sample", "maxseg", "--rules", "rules/two_coin.json",
                     "--ref", "evens", "--n", "4", "--seed", "3")
    assert maxseg.returncode == 0
    assert deserialize(m_exch.stdout.strip()).n == 4


RULE_SAMPLER_FLAGS = [
    ("exchangeable", ["--rules", "rules/random_graph.json"]),
    ("m-exch", ["--rules", "rules/two_coin.json", "--ref", "evens"]),
    ("maxseg", ["--rules", "rules/two_coin.json", "--ref", "evens"])]


@pytest.mark.parametrize("kind, flags", RULE_SAMPLER_FLAGS, ids=[k for k, _ in RULE_SAMPLER_FLAGS])
def test_sample_rule_samplers_match_the_library(kind, flags):
    from relex.catalog import evens_oracle
    from relex.randomness import HierarchicalRandomSource
    from relex.rules import load_rules
    from relex.samplers import ExchangeableSampler, MaxSegSampler, MExchangeableSampler

    rules = load_rules(flags[1])
    sampler = {"exchangeable": lambda: ExchangeableSampler(rules),
               "m-exch": lambda: MExchangeableSampler(rules, evens_oracle()),
               "maxseg": lambda: MaxSegSampler(rules, evens_oracle())}[kind]()
    result = run_cli("sample", kind, *flags, "--n", "5", "--seed", "11")
    assert result.returncode == 0
    assert deserialize(result.stdout.strip()) == sampler.sample(HierarchicalRandomSource(11), 5)


@pytest.mark.parametrize("kind, flags, message", [
    ("exchangeable", [], "sample exchangeable requires --rules"),
    ("m-exch", ["--rules", "rules/two_coin.json"], "sample m-exch requires --rules and --ref"),
    ("maxseg", ["--ref", "evens"], "sample maxseg requires --rules and --ref")])
def test_sample_missing_flags_name_the_subcommand(kind, flags, message):
    result = run_cli("sample", kind, *flags, "--n", "3")
    assert result.returncode == 2
    assert message in result.stderr


def test_sample_usage_errors():
    assert run_cli("sample", "framewise", "--n", "3").returncode == 2
    assert run_cli("sample", "m-exch", "--rules", "rules/two_coin.json",
                   "--n", "3").returncode == 2
    # an option the kind does not read is rejected, naming option and kind
    result = run_cli("sample", "framewise", "--class", "graphs", "--n", "3",
                     "--rules", "rules/two_coin.json", "--ref", "nosuch")
    assert result.returncode == 2
    assert "sample framewise does not read --rules, --ref" in result.stderr
    # --cap is read only where a class is loaded
    result = run_cli("sample", "exchangeable", "--rules", "rules/random_graph.json",
                     "--n", "3", "--cap", "4")
    assert result.returncode == 2
    assert "sample exchangeable does not read --cap" in result.stderr
    # restriction-context rules are rejected by the exchangeable sampler
    result = run_cli("sample", "exchangeable", "--rules", "rules/parity_xor.json",
                     "--n", "3")
    assert result.returncode == 2
    assert "context mode" in result.stderr


def test_sample_rep_weights_error_names_the_flag():
    result = run_cli("sample", "framewise", "--class", "graphs", "--n", "3",
                     "--rep-weights", "a,b")
    assert result.returncode == 2
    assert "--rep-weights" in result.stderr and "'a'" in result.stderr
    assert run_cli("sample", "framewise", "--class", "graphs", "--n", "3",
                   "--rep-weights", "1,3").returncode == 0


@pytest.mark.parametrize("weights", ["nan,1", "inf,1", "1,-inf"])
def test_sample_rejects_non_finite_rep_weights(weights):
    result = run_cli("sample", "framewise", "--class", "graphs", "--n", "3",
                     "--rep-weights", weights)
    assert result.returncode == 2
    assert "--rep-weights" in result.stderr and result.stdout == ""


# --- test -------------------------------------------------------------------------

def test_test_exchangeability_pass():
    result = run_cli("test", "exch", "--sampler", "framewise:graphs",
                     "--n", "3", "--N", "200", "--meta-seed", "5")
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_test_equal_law_detects_different_samplers():
    result = run_cli("test", "equal", "--sampler", "framewise:graphs",
                     "--b", "exchangeable:rules/complete.json",
                     "--subset", "1,2", "--N", "200")
    assert result.returncode == 1
    assert "FAIL" in result.stdout


def test_test_equal_law_same_sampler_passes():
    result = run_cli("--json", "test", "equal", "--sampler", "framewise:graphs",
                     "--b", "framewise:graphs", "--subset", "1,2", "--N", "200")
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"] == "pass"



def test_test_equal_law_over_different_signatures_exits_2():
    result = run_cli("test", "equal", "--sampler", "framewise:graphs",
                     "--b", "framewise:subsets", "--subset", "1,2", "--N", "20")
    assert result.returncode == 2
    assert "different signatures: Signature(E/2) and Signature(P/1)" in result.stderr
    assert result.stdout == ""

FAILING_TESTS = [
    "test exch --sampler framewise:equivalence --n 3 --N 300 --meta-seed 1",
    "test rel-exch --sampler framewise:parity3 --ref evens --n 2 --N 100 --meta-seed 1",
    "test dissoc --sampler framewise:equivalence --s 1,2 --t 3,4 --N 200 --meta-seed 3",
    "test equal --sampler framewise:equivalence --b framewise:graphs --subset 1,2,3 "
    "--N 100 --meta-seed 1"]


@pytest.mark.parametrize("command", FAILING_TESTS, ids=[c.split()[1] for c in FAILING_TESTS])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_test_with_a_sampler_that_finds_no_amalgam_exits_2(command, as_json):
    # the test could not run: the failure is reported as `relex sample`
    # reports it, with no traceback
    result = run_cli(*(["--json"] if as_json else []), *shlex.split(command))
    assert result.returncode == 2 and result.stderr == ""
    if as_json:
        payload = json.loads(result.stdout)
        assert set(payload) == {"error", "subset", "family"}
        assert payload["error"] == "amalgamation-failure"
        family = [deserialize(json.dumps(member)) for member in payload["family"]]
        assert len(family) == len(payload["subset"]) >= 3
        assert all(member.n == len(family) - 1 for member in family)
    else:
        first, *slots = result.stdout.splitlines()
        assert first.startswith("amalgamation failure at subset (")
        assert [line.split(":")[0] for line in slots] == [
            f"  slot {i}" for i in range(1, len(slots) + 1)]


def test_test_dissociation_json():
    result = run_cli("--json", "test", "dissoc", "--sampler", "framewise:graphs",
                     "--s", "1,2", "--t", "3,4", "--N", "400", "--meta-seed", "3")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["name"] == "dissociation"
    assert payload["verdict"] == "pass"


def test_test_relative_exchangeability_cli():
    result = run_cli("test", "rel-exch",
                     "--sampler", "m-exch:rules/two_coin.json:evens",
                     "--ref", "evens", "--n", "2", "--N", "150",
                     "--meta-seed", "1")
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_rule_tables_keyed_over_another_reference_exit_2():
    # rules/two_coin.json keys P/1 references; odd-target is a graph
    sample = run_cli("sample", "m-exch", "--rules", "rules/two_coin.json",
                     "--ref", "odd-target", "--n", "3")
    test = run_cli("test", "rel-exch", "--sampler", "maxseg:rules/two_coin.json:odd-target",
                   "--ref", "odd-target", "--n", "2", "--N", "10")
    for result in (sample, test):
        assert result.returncode == 2
        assert "'P'" in result.stderr and "Signature(E/2)" in result.stderr


def test_test_usage_errors():
    assert run_cli("test", "equal", "--sampler", "framewise:graphs",
                   "--subset", "1,2").returncode == 2
    assert run_cli("test", "rel-exch", "--sampler", "framewise:graphs",
                   "--n", "2").returncode == 2
    assert run_cli("test", "exch", "--sampler", "bogus:spec").returncode == 2
    assert run_cli("test", "exch", "--sampler", "ref:nosuch").returncode == 2
    result = run_cli("test", "exch", "--sampler", "framewise:graphs", "--ref", "nosuch",
                     "--window", "1", "--s", "x")
    assert result.returncode == 2
    assert "test exch does not read --ref, --s, --window" in result.stderr
    for args, message in (
            (("exch", "--sampler", "exchangeable:rules/complete.json", "--n", "2",
              "--N", "20", "--cap", "2"), "test exch does not read --cap"),
            (("dissoc", "--sampler", "framewise:graphs", "--s", "1,2", "--t", "3,4",
              "--n", "9", "--N", "50"), "test dissoc does not read --n")):
        result = run_cli("test", *args)
        assert result.returncode == 2, args
        assert message in result.stderr, args
    result = run_cli("test", "dissoc", "--sampler", "framewise:graphs",
                     "--s", "1,2", "--t", "2,3", "--N", "50")
    assert result.returncode == 2
    # a window with no room for probe pairs is an input error, not a pass
    result = run_cli("test", "rel-exch", "--sampler", "m-exch:rules/two_coin.json:evens",
                     "--ref", "evens", "--n", "2", "--window", "0")
    assert result.returncode == 2
    assert "window 0 must exceed n = 2" in result.stderr


# --- verify-paper-examples ----------------------------------------------------------

def test_verify_paper_examples_fast():
    result = run_cli("verify-paper-examples", "--fast")
    assert result.returncode == 0
    for name in ("weak-rep", "tdc-evens", "parity-overlay", "strong-rep"):
        assert f"{name}: PASS" in result.stdout
    assert "overall: PASS (4/4 claims)" in result.stdout


def test_verify_paper_examples_json():
    result = run_cli("--json", "verify-paper-examples", "--fast")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["passed"] is True
    assert len(payload["reports"]) == 4
    assert all(r["passed"] for r in payload["reports"])


# --- embeddings -------------------------------------------------------------------

def test_embeddings_between_structure_files(tmp_path):
    edge = Structure(GRAPH_SIG, 2, {"E": [(1, 2), (2, 1)]})
    triangle = Structure(GRAPH_SIG, 3,
                         {"E": [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)
                                if i != j]})
    source = tmp_path / "edge.json"
    target = tmp_path / "triangle.json"
    source.write_text(serialize(edge))
    target.write_text(serialize(triangle))
    result = run_cli("--json", "embeddings", "--source", str(source),
                     "--target", str(target))
    assert result.returncode == 0
    assert json.loads(result.stdout)["count"] == 6


def test_embeddings_missing_file():
    assert run_cli("embeddings", "--source", "no.json",
                   "--target", "no.json").returncode == 2


# --- the README's CLI block ---------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _readme_cli_examples() -> list[tuple[str, list[str]]]:
    """Each `$ relex ...` line of the README's CLI block with the lines
    printed below it, trailing blank lines dropped."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ relex "):
            examples.append((line[2:], []))
        elif examples:
            examples[-1][1].append(line)
    for _, expected in examples:
        while expected and not expected[-1]:
            expected.pop()
    return examples


README_EXAMPLES = _readme_cli_examples()


def test_readme_cli_block_is_found():
    assert [command.split()[1] for command, _ in README_EXAMPLES] == [
        "check", "sample", "theory", "test"]


@pytest.mark.parametrize("command, expected", README_EXAMPLES,
                         ids=[command for command, _ in README_EXAMPLES])
def test_readme_cli_output(command, expected):
    """A README line ending in `...}` elides the rest of the line; it is
    matched as a prefix."""
    result = run_cli(*shlex.split(command)[1:], cwd=ROOT)
    assert result.returncode in (0, 1), result.stderr
    actual = result.stdout.rstrip("\n").split("\n")
    assert len(actual) == len(expected), result.stdout
    for got, want in zip(actual, expected):
        if want.endswith("...}"):
            assert got.startswith(want[:-len("...}")]), (got, want)
        else:
            assert got == want


# --- argparse-level errors ----------------------------------------------------------

def test_unknown_subcommand_exits_2():
    for command in (("frobnicate",), ("check", "bogus", "--class", "graphs"),
                    ("theory", "bogus", "theories/graphs.th"), ("sample", "bogus", "--n", "3"),
                    ("test", "bogus", "--sampler", "framewise:graphs")):
        result = run_cli(*command)
        assert result.returncode == 2, command
        assert "invalid choice" in result.stderr, command


def test_missing_required_flag_exits_2():
    assert run_cli("age", "--n", "3").returncode == 2

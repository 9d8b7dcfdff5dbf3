"""Theory DSL: parsing, error positions, the parametricity test, and model
enumeration against a naive filter."""

import itertools
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_models, naive_satisfies
from relex import (Signature, Structure, Theory, TheoryParseError, enumerate_models,
                   is_parametric, load_theory, parse_theory, satisfies)
from relex.theory import And, Atom, Implies, Not, Or, Sentence

THEORY_FILES = sorted((Path(__file__).resolve().parent.parent / "theories").glob("*.th"))

GRAPHS_TH = """
rel E/2;
forall x y . E(x,y) -> E(y,x);
forall x . !E(x,x);
"""

EQUIV_TH = """
rel E/2;
forall x . E(x,x);
forall x y . E(x,y) -> E(y,x);
forall x y z . (E(x,y) & E(y,z)) -> E(x,z);
"""


# --- parsing ---------------------------------------------------------------------

def test_parse_well_formed():
    th = parse_theory(GRAPHS_TH, source_name="graphs")
    assert th.signature == Signature((("E", 2),))
    assert len(th.sentences) == 2
    assert th.sentences[0].variables == ("x", "y")
    assert str(th.sentences[1]) == "forall x . !E(x,x);"


def test_parse_comments_and_whitespace():
    th = parse_theory("rel P/1;  # a unary symbol\n# nothing else\nforall x . P(x) | !P(x);")
    assert len(th.sentences) == 1


def test_implication_is_right_associative():
    th = parse_theory("rel P/1;\nforall x . P(x) -> P(x) -> P(x);")
    matrix = th.sentences[0].matrix
    # a -> (b -> c): the consequent is itself an implication
    assert type(matrix).__name__ == "Implies"
    assert type(matrix.consequent).__name__ == "Implies"


def _printed(theory: Theory) -> str:
    """The theory as text: its `rel` header lines, then each sentence."""
    header = [f"rel {name}/{arity};" for name, arity in theory.signature]
    return "\n".join(header + [str(sentence) for sentence in theory.sentences])


def _reparsed(theory: Theory) -> Theory:
    return parse_theory(_printed(theory), source_name=theory.source_name)


def test_atom_positions_are_not_part_of_equality():
    text = "rel E/2;\nforall x y z . E(x,y) -> E(y,z) -> E(x,z);"
    th = parse_theory(text)
    assert _reparsed(th) == th
    assert th.sentences[0].matrix.antecedent.column == 16
    assert Atom("E", ("x", "y"), 1, 2) == Atom("E", ("x", "y"), 3, 4)
    assert hash(Atom("E", ("x", "y"), 1, 2)) == hash(Atom("E", ("x", "y")))


@pytest.mark.parametrize("path", THEORY_FILES, ids=lambda p: p.stem)
def test_corpus_theories_print_and_parse_back(path):
    th = load_theory(str(path))
    assert th.sentences
    assert _reparsed(th) == th


_RELATIONS = (("P", 1), ("E", 2), ("R", 3))
_VARIABLES = ("x", "y", "z")


def _formulas():
    """Formula trees as the parser builds them: And and Or of two or three parts."""
    atoms = st.sampled_from(_RELATIONS).flatmap(
        lambda rel: st.tuples(*[st.sampled_from(_VARIABLES)] * rel[1]).map(
            lambda variables, name=rel[0]: Atom(name, variables)))

    def compound(children):
        parts = st.lists(children, min_size=2, max_size=3).map(tuple)
        return st.one_of(children.map(Not), parts.map(And), parts.map(Or),
                         st.tuples(children, children).map(lambda pair: Implies(*pair)))

    return st.recursive(atoms, compound, max_leaves=8)


@given(st.lists(_formulas(), min_size=1, max_size=3))
def test_printed_formulas_parse_back(matrices):
    th = Theory(Signature(_RELATIONS), tuple(Sentence(_VARIABLES, m) for m in matrices))
    assert _reparsed(th) == th


def test_precedence_not_and_or():
    # !P(x) & P(x) | P(x) parses as ((!P & P) | P), a tautology;
    # under the wrong precedence !(P & (P | P)) it would exclude full models.
    th = parse_theory("rel P/1;\nforall x . !P(x) & P(x) | P(x);")
    full = Structure(th.signature, 1, {"P": [(1,)]})
    empty = Structure(th.signature, 1)
    assert satisfies(th, full)
    assert not satisfies(th, empty)


@pytest.mark.parametrize("text, line, fragment", [
    ("rel E/2;\nforall x . F(x,x);", 2, "undeclared"),
    ("rel E/2;\nforall x . E(x,y);", 2, "unquantified"),
    ("rel E/2;\nforall x . E(x);", 2, "arity"),
    ("rel E/2;\nforall x . E(x,x)", 2, "';'"),
    ("rel E/2;\nforall x x . E(x,x);", 2, "duplicate"),
    ("rel E/2;\nforall . E(x,x);", 2, "variable"),
    ("rel E/2;\nforall x . @;", 2, "unexpected character"),
    ("rel E/2;\nE(x,x);", 2, "forall"),
    ("rel E/2;\nrel E/3;", 2, "duplicate"),
    ("rel E/2;\nrel R/0;", 2, "arity"),
    ("rel R/\u00b2;", 1, "arity"),
])
def test_parse_errors_carry_position(text, line, fragment):
    with pytest.raises(TheoryParseError) as exc_info:
        parse_theory(text)
    assert exc_info.value.line == line
    assert fragment.lower() in str(exc_info.value).lower()


def test_duplicate_relation_declaration_rejected():
    with pytest.raises(TheoryParseError):
        parse_theory("rel E/2;\nrel E/3;")


# --- parametricity -----------------------------------------------------------------

def test_parametricity_classification():
    ok, offender = is_parametric(parse_theory(GRAPHS_TH))
    assert ok and offender is None

    ok, offender = is_parametric(parse_theory(EQUIV_TH))
    assert not ok
    # transitivity quantifies x y z but its atoms mention only two of them
    assert offender is not None
    assert str(offender) == "E(x,y)"
    assert offender.line == 5


def test_parametricity_of_corpus_files():
    from pathlib import Path

    from relex import load_theory
    corpus = Path(__file__).resolve().parent.parent / "theories"
    for name in ("graphs", "digraphs_loopfree", "oriented_graphs", "hypergraphs3"):
        ok, offender = is_parametric(load_theory(str(corpus / f"{name}.th")))
        assert ok, f"{name}: unexpected offender {offender}"
    ok, offender = is_parametric(load_theory(str(corpus / "equivalence.th")))
    assert not ok and str(offender) == "E(x,y)"


# --- satisfaction and enumeration ----------------------------------------------------

def test_satisfies_manual_cases():
    th = parse_theory(GRAPHS_TH)
    sig = th.signature
    assert satisfies(th, Structure(sig, 2, {"E": [(1, 2), (2, 1)]}))
    assert not satisfies(th, Structure(sig, 2, {"E": [(1, 2)]}))      # asymmetric
    assert not satisfies(th, Structure(sig, 1, {"E": [(1, 1)]}))      # loop
    assert satisfies(th, Structure(sig, 0))
    assert not satisfies(th, Structure(Signature((("F", 2),)), 0))    # wrong signature


def test_quantifiers_range_over_repeated_assignments():
    # forall x y . !E(x,y) with x = y forbids loops too
    th = parse_theory("rel E/2;\nforall x y . !E(x,y);")
    assert not satisfies(th, Structure(th.signature, 1, {"E": [(1, 1)]}))


def test_enumerate_models_equals_naive_filter():
    for text in (GRAPHS_TH, EQUIV_TH, "rel P/1;\nforall x . P(x);",
                 "rel P/1; rel E/2;\nforall x y . E(x,y) -> (P(x) & P(y));"):
        th = parse_theory(text)
        for n in range(0, 4):
            fast = enumerate_models(th, n)
            assert [m.key() for m in fast] == [m.key() for m in naive_models(th, n)]


def test_known_model_counts():
    graphs = parse_theory(GRAPHS_TH)
    assert [len(enumerate_models(graphs, n)) for n in range(5)] == [1, 1, 2, 8, 64]
    equiv = parse_theory(EQUIV_TH)
    # Bell numbers: partitions of an n-set
    assert [len(enumerate_models(equiv, n)) for n in range(5)] == [1, 1, 2, 5, 15]


def _structures(n: int):
    """Structures on [1, n] over the `_RELATIONS` signature, one drawn bit per tuple."""
    space = [(name, tup) for name, arity in _RELATIONS
             for tup in itertools.product(range(1, n + 1), repeat=arity)]

    def build(bits):
        relations = {name: [] for name, _ in _RELATIONS}
        for (name, tup), bit in zip(space, bits):
            if bit:
                relations[name].append(tup)
        return Structure(Signature(_RELATIONS), n, relations)

    return st.lists(st.booleans(), min_size=len(space), max_size=len(space)).map(build)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_formulas(), min_size=1, max_size=3),
       st.integers(0, 3).flatmap(_structures))
def test_satisfies_and_enumeration_match_the_tree_walking_reference(matrices, structure):
    th = Theory(Signature(_RELATIONS), tuple(Sentence(_VARIABLES, m) for m in matrices))
    assert satisfies(th, structure) == naive_satisfies(th, structure)
    for n in (0, 1):
        assert enumerate_models(th, n) == naive_models(th, n)


def test_deep_search_does_not_recurse():
    # 6^4 = 1,296 ground tuples, one search level each
    th = parse_theory("rel R/4; forall x y z w . !R(x,y,z,w);")
    assert enumerate_models(th, 6) == [Structure(th.signature, 6)]


def test_a_theory_pickles_after_use():
    th = parse_theory(EQUIV_TH)
    assert len(enumerate_models(th, 3)) == 5
    copy = pickle.loads(pickle.dumps(th))
    assert copy == th
    assert len(enumerate_models(copy, 3)) == 5


def test_enumerate_models_rejects_negative_n():
    with pytest.raises(ValueError):
        enumerate_models(parse_theory(GRAPHS_TH), -1)

"""Universal theory DSL: parser, parametricity check, model enumeration.

Theory files are UTF-8 text.  Each relation symbol is declared in a header
line `rel R/2;`, followed by universally quantified sentences:

    rel E/2;
    forall x . !E(x,x);
    forall x y . E(x,y) -> E(y,x);

Formula connectives by loosening precedence: ! (tightest), &, |, -> (lowest,
right-associative).  Atoms are R(x,...,x).  Quantification ranges over all
assignments of the variables, repeats included, so `!E(x,x)` genuinely
forbids diagonal tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .structures import Signature, Structure


class TheoryParseError(ValueError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# --- formula tree -----------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    relation: str
    variables: tuple[str, ...]
    # where the atom was parsed; not part of its identity
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return f"{self.relation}({','.join(self.variables)})"


@dataclass(frozen=True)
class Not:
    operand: "Formula"

    def __str__(self) -> str:
        return f"!{_wrap(self.operand)}"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]

    def __str__(self) -> str:
        return " & ".join(_wrap(p) for p in self.parts)


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]

    def __str__(self) -> str:
        return " | ".join(_wrap(p) for p in self.parts)


@dataclass(frozen=True)
class Implies:
    antecedent: "Formula"
    consequent: "Formula"

    def __str__(self) -> str:
        return f"{_wrap(self.antecedent)} -> {_wrap(self.consequent)}"


Formula = Atom | Not | And | Or | Implies


def _wrap(f: Formula) -> str:
    return str(f) if isinstance(f, (Atom, Not)) else f"({f})"


@dataclass(frozen=True)
class Sentence:
    variables: tuple[str, ...]
    matrix: Formula

    def __str__(self) -> str:
        return f"forall {' '.join(self.variables)} . {self.matrix};"


@dataclass(frozen=True)
class Theory:
    signature: Signature
    sentences: tuple[Sentence, ...]
    source_name: str = "<theory>"


# --- lexer ------------------------------------------------------------------

_PUNCT = {";": "SEMI", ".": "DOT", ",": "COMMA", "(": "LPAREN", ")": "RPAREN",
          "!": "BANG", "&": "AMP", "|": "PIPE", "/": "SLASH"}


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "FORALL" if word == "forall" else "REL" if word == "rel" else "IDENT"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise TheoryParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# --- parser -----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token], source_name: str):
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise TheoryParseError(f"expected {what}, found {tok.text or 'end of input'!r}",
                                   tok.line, tok.column)
        return self.next()

    def parse_theory(self) -> Theory:
        declarations: list[tuple[str, int]] = []
        while self.peek().kind == "REL":
            self.next()
            name = self.expect("IDENT", "relation name")
            self.expect("SLASH", "'/'")
            arity = self.expect("NUMBER", "arity")
            self.expect("SEMI", "';'")
            declarations.append((name.text, int(arity.text)))
        try:
            signature = Signature(declarations)
        except ValueError as exc:
            tok = self.tokens[0]
            raise TheoryParseError(str(exc), tok.line, tok.column) from exc
        sentences = []
        while self.peek().kind != "EOF":
            sentences.append(self.parse_sentence(signature))
        return Theory(signature, tuple(sentences), self.source_name)

    def parse_sentence(self, signature: Signature) -> Sentence:
        self.expect("FORALL", "'forall'")
        variables = []
        while self.peek().kind == "IDENT":
            variables.append(self.next().text)
        if not variables:
            tok = self.peek()
            raise TheoryParseError("expected at least one variable", tok.line, tok.column)
        if len(set(variables)) != len(variables):
            tok = self.peek()
            raise TheoryParseError("duplicate quantified variable", tok.line, tok.column)
        self.expect("DOT", "'.'")
        matrix = self.parse_formula(signature, set(variables))
        self.expect("SEMI", "';'")
        return Sentence(tuple(variables), matrix)

    def parse_formula(self, signature: Signature, scope: set[str]) -> Formula:
        left = self.parse_disj(signature, scope)
        if self.peek().kind == "ARROW":
            self.next()
            right = self.parse_formula(signature, scope)
            return Implies(left, right)
        return left

    def parse_disj(self, signature: Signature, scope: set[str]) -> Formula:
        parts = [self.parse_conj(signature, scope)]
        while self.peek().kind == "PIPE":
            self.next()
            parts.append(self.parse_conj(signature, scope))
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_conj(self, signature: Signature, scope: set[str]) -> Formula:
        parts = [self.parse_lit(signature, scope)]
        while self.peek().kind == "AMP":
            self.next()
            parts.append(self.parse_lit(signature, scope))
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_lit(self, signature: Signature, scope: set[str]) -> Formula:
        tok = self.peek()
        if tok.kind == "BANG":
            self.next()
            return Not(self.parse_lit(signature, scope))
        if tok.kind == "LPAREN":
            self.next()
            inner = self.parse_formula(signature, scope)
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT":
            return self.parse_atom(signature, scope)
        raise TheoryParseError(f"expected atom, found {tok.text or 'end of input'!r}",
                               tok.line, tok.column)

    def parse_atom(self, signature: Signature, scope: set[str]) -> Atom:
        name = self.expect("IDENT", "relation name")
        if name.text not in signature:
            raise TheoryParseError(f"undeclared relation {name.text!r}",
                                   name.line, name.column)
        self.expect("LPAREN", "'('")
        variables = [self.expect("IDENT", "variable")]
        while self.peek().kind == "COMMA":
            self.next()
            variables.append(self.expect("IDENT", "variable"))
        self.expect("RPAREN", "')'")
        for v in variables:
            if v.text not in scope:
                raise TheoryParseError(f"unquantified variable {v.text!r}", v.line, v.column)
        arity = signature.arity(name.text)
        if len(variables) != arity:
            raise TheoryParseError(
                f"relation {name.text!r} has arity {arity}, got {len(variables)} arguments",
                name.line, name.column)
        return Atom(name.text, tuple(v.text for v in variables), name.line, name.column)


def parse_theory(text: str, source_name: str = "<theory>") -> Theory:
    """Parse theory text; raises TheoryParseError with line/column on bad input."""
    return _Parser(_tokenize(text), source_name).parse_theory()


def load_theory(path: str) -> Theory:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_theory(fh.read(), source_name=path)


# --- parametricity ----------------------------------------------------------

def _atoms(formula: Formula) -> Iterator[Atom]:
    if isinstance(formula, Atom):
        yield formula
    elif isinstance(formula, Not):
        yield from _atoms(formula.operand)
    elif isinstance(formula, (And, Or)):
        for part in formula.parts:
            yield from _atoms(part)
    elif isinstance(formula, Implies):
        yield from _atoms(formula.antecedent)
        yield from _atoms(formula.consequent)


def is_parametric(theory: Theory) -> tuple[bool, Optional[Atom]]:
    """A theory is parametric when every atom of every sentence mentions all
    of that sentence's quantified variables.  Returns the first offending
    atom otherwise."""
    for sentence in theory.sentences:
        need = set(sentence.variables)
        for atom in _atoms(sentence.matrix):
            if set(atom.variables) != need:
                return False, atom
    return True, None


# --- evaluation and model enumeration ---------------------------------------

def _eval(formula: Formula, assignment: dict[str, int],
          lookup: dict[tuple[str, tuple[int, ...]], bool]) -> bool:
    if isinstance(formula, Atom):
        ground = tuple(assignment[v] for v in formula.variables)
        return lookup[(formula.relation, ground)]
    if isinstance(formula, Not):
        return not _eval(formula.operand, assignment, lookup)
    if isinstance(formula, And):
        return all(_eval(p, assignment, lookup) for p in formula.parts)
    if isinstance(formula, Or):
        return any(_eval(p, assignment, lookup) for p in formula.parts)
    if isinstance(formula, Implies):
        return (not _eval(formula.antecedent, assignment, lookup)) or \
            _eval(formula.consequent, assignment, lookup)
    raise TypeError(f"unknown formula node {formula!r}")


def satisfies(theory: Theory, structure: Structure) -> bool:
    """Model check: every sentence true under every variable assignment."""
    if structure.signature != theory.signature:
        return False
    n = structure.n
    lookup = {}
    for name, arity in theory.signature:
        members = structure.relation_sets()[name]
        for tup in itertools.product(range(1, n + 1), repeat=arity):
            lookup[(name, tup)] = tup in members
    for sentence in theory.sentences:
        for values in itertools.product(range(1, n + 1), repeat=len(sentence.variables)):
            assignment = dict(zip(sentence.variables, values))
            if not _eval(sentence.matrix, assignment, lookup):
                return False
    return True


@dataclass
class _GroundInstance:
    """One sentence instantiated at one assignment, for early pruning."""
    formula: Formula
    assignment: dict[str, int]
    last_tuple_index: int


def enumerate_models(theory: Theory, n: int) -> list[Structure]:
    """All structures on [1, n] satisfying the theory.

    Backtracking over tuple membership in a fixed order; each ground
    sentence instance is evaluated as soon as its last tuple is decided,
    which prunes violated branches early.  Output sorted by serialization.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    all_tuples: list[tuple[str, tuple[int, ...]]] = []
    for name, arity in theory.signature:
        for tup in itertools.product(range(1, n + 1), repeat=arity):
            all_tuples.append((name, tup))
    index_of = {key: i for i, key in enumerate(all_tuples)}

    instances_by_last: dict[int, list[_GroundInstance]] = {}
    for sentence in theory.sentences:
        for values in itertools.product(range(1, n + 1), repeat=len(sentence.variables)):
            assignment = dict(zip(sentence.variables, values))
            involved = [index_of[(a.relation, tuple(assignment[v] for v in a.variables))]
                        for a in _atoms(sentence.matrix)]
            if not involved:
                continue
            inst = _GroundInstance(sentence.matrix, assignment, max(involved))
            instances_by_last.setdefault(inst.last_tuple_index, []).append(inst)

    lookup: dict[tuple[str, tuple[int, ...]], bool] = {}
    models: list[Structure] = []

    def assign(i: int) -> None:
        if i == len(all_tuples):
            relations: dict[str, list[tuple[int, ...]]] = {name: [] for name, _ in theory.signature}
            for (name, tup) in all_tuples:
                if lookup[(name, tup)]:
                    relations[name].append(tup)
            models.append(Structure(theory.signature, n, relations))
            return
        key = all_tuples[i]
        for bit in (False, True):
            lookup[key] = bit
            ok = True
            for inst in instances_by_last.get(i, ()):
                if not _eval(inst.formula, inst.assignment, lookup):
                    ok = False
                    break
            if ok:
                assign(i + 1)
        del lookup[key]

    assign(0)
    return sorted(models, key=lambda s: s.key())

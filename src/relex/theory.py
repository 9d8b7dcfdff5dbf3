"""Universal theory DSL: parser, parametricity check, model enumeration.

Theory files are UTF-8 text: `rel R/2;` header lines declare the relation
symbols, and universally quantified sentences follow:

    rel E/2;
    forall x . !E(x,x);
    forall x y . E(x,y) -> E(y,x);

Words are runs of Unicode letters, digits and underscores: all digits make
an arity, `rel` and `forall` are keywords, any other word is a relation or
variable name; `#` starts a comment.  Connectives by loosening precedence:
! (tightest), &, |, -> (lowest, right-associative).  Quantifiers range over
all assignments, repeats included, so `!E(x,x)` forbids diagonal tuples.

`satisfies` and `enumerate_models` share one grounding per theory and size
n, kept on the `Theory` for as long as it lives: the ground tuples on [1, n]
in support order (largest entry, then sorted entry set, then name and
tuple), and each sentence compiled once into a test of the tuple bits, its
instances filed, as the positions of their atoms' tuples, under the position
of their last tuple.  Support order decides all tuples on a set of points
before any tuple naming a larger point.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

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
    # n -> `_grounding(self, n)`; not part of the theory's identity
    _groundings: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __getstate__(self) -> dict:
        # the memo's compiled tests are closures, which do not pickle
        return {**self.__dict__, "_groundings": {}}


# --- lexer ------------------------------------------------------------------

# one alternative per token class; `error` catches any other character
_TOKEN = re.compile(r"(?P<skip>[ \t\r]+|#.*)|(?P<newline>\n)"
                    r"|(?P<token>->|[;.,()!&|/]|\w+)|(?P<error>.)")
_KINDS = {";": "SEMI", ".": "DOT", ",": "COMMA", "(": "LPAREN", ")": "RPAREN",
          "!": "BANG", "&": "AMP", "|": "PIPE", "/": "SLASH", "->": "ARROW",
          "forall": "FORALL", "rel": "REL"}


_Token = namedtuple("_Token", "kind text line column")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, word = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "error":
            raise TheoryParseError(f"unexpected character {word!r}", line, column)
        elif kind == "token":
            tokens.append(_Token(_KINDS.get(word, "NUMBER" if word.isdecimal() else "IDENT"),
                                 word, line, column))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
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
        signature = Signature(())
        while self.peek().kind == "REL":
            rel = self.next()
            name = self.expect("IDENT", "relation name")
            self.expect("SLASH", "'/'")
            arity = self.expect("NUMBER", "arity")
            self.expect("SEMI", "';'")
            try:
                signature = Signature(signature.symbols + ((name.text, int(arity.text)),))
            except ValueError as exc:
                raise TheoryParseError(str(exc), rel.line, rel.column) from exc
        sentences = []
        while self.peek().kind != "EOF":
            sentences.append(self.parse_sentence(signature))
        return Theory(signature, tuple(sentences), self.source_name)

    def parse_sentence(self, signature: Signature) -> Sentence:
        self.expect("FORALL", "'forall'")
        variables = []
        while self.peek().kind == "IDENT":
            variables.append(self.next().text)
        tok = self.peek()
        if not variables:
            raise TheoryParseError("expected at least one variable", tok.line, tok.column)
        if len(set(variables)) != len(variables):
            raise TheoryParseError("duplicate quantified variable", tok.line, tok.column)
        self.expect("DOT", "'.'")
        matrix = self.parse_formula(signature, set(variables))
        self.expect("SEMI", "';'")
        return Sentence(tuple(variables), matrix)

    def parse_formula(self, signature: Signature, scope: set[str]) -> Formula:
        left = self.parse_disj(signature, scope)
        if self.peek().kind != "ARROW":
            return left
        self.next()
        return Implies(left, self.parse_formula(signature, scope))

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
        return self.parse_atom(self.expect("IDENT", "atom"), signature, scope)

    def parse_atom(self, name: _Token, signature: Signature, scope: set[str]) -> Atom:
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


# --- grounding, model checking and model enumeration ------------------------

def _compile(formula: Formula, slot: dict[Atom, int]) -> Callable[..., bool]:
    """The formula as a test of the tuple bits at one instance: atom `a` reads
    `bits[at[slot[a]]]`, `at` holding the positions of the instance's atoms' tuples."""
    if isinstance(formula, Atom):
        k = slot[formula]
        return lambda bits, at: bits[at[k]]
    if isinstance(formula, Not):
        operand = _compile(formula.operand, slot)
        return lambda bits, at: not operand(bits, at)
    if isinstance(formula, Implies):
        antecedent = _compile(formula.antecedent, slot)
        consequent = _compile(formula.consequent, slot)
        return lambda bits, at: not antecedent(bits, at) or consequent(bits, at)
    parts = [_compile(part, slot) for part in formula.parts]
    if isinstance(formula, And):
        return lambda bits, at: all(part(bits, at) for part in parts)
    return lambda bits, at: any(part(bits, at) for part in parts)


def _grounding(theory: Theory, n: int) -> tuple[list[tuple[str, tuple[int, ...]]], list]:
    """The ground tuples on [1, n] in support order, and each sentence instance
    as (test, positions) under its last tuple's position; built once per n."""
    if n not in theory._groundings:
        universe = range(1, n + 1)
        tuples = sorted(((name, tup) for name, arity in theory.signature
                         for tup in itertools.product(universe, repeat=arity)),
                        key=lambda item: (max(item[1]), sorted(set(item[1])), item))
        index = {item: position for position, item in enumerate(tuples)}
        instances: list[list] = [[] for _ in tuples]
        for sentence in theory.sentences:
            atoms = list(dict.fromkeys(_atoms(sentence.matrix)))
            test = _compile(sentence.matrix, {atom: k for k, atom in enumerate(atoms)})
            for values in itertools.product(universe, repeat=len(sentence.variables)):
                value = dict(zip(sentence.variables, values))
                at = tuple(index[atom.relation, tuple(value[v] for v in atom.variables)]
                           for atom in atoms)
                instances[max(at)].append((test, at))
        theory._groundings[n] = (tuples, instances)
    return theory._groundings[n]


def satisfies(theory: Theory, structure: Structure) -> bool:
    """Model check: every sentence true under every variable assignment."""
    if structure.signature != theory.signature:
        return False
    tuples, instances = _grounding(theory, structure.n)
    members = structure.relation_sets()
    bits = [tup in members[name] for name, tup in tuples]
    return all(test(bits, at) for filed in instances for test, at in filed)


def enumerate_models(theory: Theory, n: int) -> list[Structure]:
    """All structures on [1, n] satisfying the theory, sorted by key.

    Backtracks over the ground tuples in support order with an explicit
    stack; each sentence instance is tested as soon as its last tuple is
    decided, which prunes violated branches early.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    tuples, instances = _grounding(theory, n)
    if not tuples:
        return [Structure._trusted(theory.signature, n, {})]
    bits = [False] * len(tuples)
    models = []
    # (position, bit) choices still to try; a test at a position reads only
    # bits at or before it, so later bits need no reset on backtracking
    stack = [(0, True), (0, False)]
    while stack:
        position, bit = stack.pop()
        bits[position] = bit
        if all(test(bits, at) for test, at in instances[position]):
            if position + 1 < len(tuples):
                stack += ((position + 1, True), (position + 1, False))
            else:
                relations: dict[str, list[tuple[int, ...]]] = {}
                for (name, tup), member in zip(tuples, bits):
                    if member:
                        relations.setdefault(name, []).append(tup)
                models.append(Structure._trusted(theory.signature, n, relations))
    return sorted(models, key=Structure.key)

"""Command-line front end.

Subcommands map one-to-one onto the library: property checks (ndap / dap /
jep), age enumeration, theory parsing and model enumeration, the four
samplers, the statistical test harness, embedding enumeration, and the
named-example verification suite.  Exit codes: 0 success/pass, 1 property
or test failure (witness emitted), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .amalgamation import (BUILTIN_CLASS_NAMES, CapExceededError, FiniteClass,
                           builtin_class, check_dap, check_jep, check_ndap,
                           from_theory, make_builtin_class)
from .catalog import (_REFERENCE_ORACLES, PAPER_EXAMPLE_NAMES, _ExampleSampler,
                      verify_all)
from .embeddings import enumerate_embeddings
from .randomness import HierarchicalRandomSource
from .rules import load_rules
from .samplers import (AmalgamationFailure, ExchangeableSampler,
                       FramewiseSampler, MaxSegSampler, MExchangeableSampler)
from .stattests import (empirical_law, test_dissociation, test_equal_law,
                        test_exchangeability, test_relative_exchangeability)
from .structures import load_structure, serialize
from .theory import TheoryParseError, enumerate_models, is_parametric, load_theory


@dataclass
class RunConfig:
    cap: int = 6
    alpha: float = 0.01
    sample_count: int = 1000

    def validate(self) -> None:
        if self.cap > 8 or self.cap < 1:
            raise ValueError("cap must lie in [1, 8]")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.sample_count < 1:
            raise ValueError("sample count must be >= 1")


class UsageError(ValueError):
    pass


def _default_seed() -> int:
    raw = os.environ.get("RELEX_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"RELEX_SEED must be an integer, got {raw!r}") from None


def _load_class(spec: str, cap: int) -> FiniteClass:
    if spec in BUILTIN_CLASS_NAMES:
        return builtin_class(spec) if cap == 6 else make_builtin_class(spec, cap=cap)
    if os.path.exists(spec):
        return from_theory(load_theory(spec), cap=cap)
    raise UsageError(
        f"unknown class {spec!r}: not a builtin ({', '.join(BUILTIN_CLASS_NAMES)}) "
        "and no such theory file")


def _load_oracle(spec: str):
    if spec in _REFERENCE_ORACLES:
        return _REFERENCE_ORACLES[spec]()
    if os.path.exists(spec):
        return load_structure(spec)
    raise UsageError(
        f"unknown reference {spec!r}: not a named oracle "
        f"({', '.join(sorted(_REFERENCE_ORACLES))}) and no such structure file")


def _rule_sampler(kind: str, rules: str, ref: str | None = None):
    """The exchangeable (no reference), m-exch or maxseg sampler over a rules file."""
    table = load_rules(rules)
    if kind == "exchangeable":
        return ExchangeableSampler(table)
    return {"m-exch": MExchangeableSampler, "maxseg": MaxSegSampler}[kind](
        table, _load_oracle(ref))


def _build_sampler(spec: str, cap: int):
    """Mini-spec grammar: framewise:<class>, exchangeable:<rules.json>,
    m-exch:<rules.json>:<ref>, maxseg:<rules.json>:<ref>, ref:<example>."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "framewise" and len(parts) == 2:
        return FramewiseSampler(_load_class(parts[1], cap))
    if len(parts) == {"exchangeable": 2, "m-exch": 3, "maxseg": 3}.get(kind):
        return _rule_sampler(*parts)
    if kind == "ref" and len(parts) == 2:
        if parts[1] not in PAPER_EXAMPLE_NAMES:
            raise UsageError(f"unknown example {parts[1]!r}; choose from {PAPER_EXAMPLE_NAMES}")
        return _ExampleSampler(parts[1])
    raise UsageError(
        f"bad sampler spec {spec!r}; expected framewise:<class>, "
        "exchangeable:<rules>, m-exch:<rules>:<ref>, maxseg:<rules>:<ref>, "
        "or ref:<example>")


def _parse_subset(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise UsageError(f"bad subset {text!r}; expected comma-separated integers") from None
    if not values or any(v < 1 for v in values):
        raise UsageError(f"subset {text!r} must contain positive integers")
    return values


def _parse_weights(text: str) -> tuple[float, ...]:
    weights = []
    for part in text.split(","):
        try:
            weights.append(float(part))
        except ValueError:
            raise UsageError(f"--rep-weights: {part!r} in {text!r} is not a number") from None
        if not (math.isfinite(weights[-1]) and weights[-1] > 0):
            raise UsageError(f"--rep-weights: {part!r} in {text!r} is not a finite "
                             "positive number")
    return tuple(weights)


def _emit(payload, as_json: bool, human_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)


# --- subcommand handlers ---------------------------------------------------------


def _cmd_check(args) -> int:
    RunConfig(cap=args.cap).validate()
    klass = _load_class(args.klass, args.cap)
    if args.kind == "ndap":
        report = check_ndap(klass, args.n)
        lines = [f"{args.n}-DAP on class {klass.name!r}: "
                 f"{'holds' if report.holds else 'FAILS'} (by {report.method})"]
        if not report.holds:
            lines.append("witness family (slot i is the structure on the "
                         "base set minus its i-th element):")
            lines.extend(f"  slot {i}: {serialize(s)}"
                         for i, s in enumerate(report.witness_family, start=1))
        _emit(report.to_json(), args.json, lines)
        return 0 if report.holds else 1
    if args.kind == "dap":
        report = check_dap(klass, bound=args.bound)
        lines = [f"DAP (bound {args.bound}) on class {klass.name!r}: "
                 f"{'holds' if report.holds else 'FAILS'}"]
        if report.counterexample is not None:
            lines.append(f"counterexample: {json.dumps(report.counterexample)}")
        _emit(report.to_json(), args.json, lines)
        return 0 if report.holds else 1
    if args.kind == "jep":
        report = check_jep(klass, bound=args.bound)
        lines = [f"JEP (bound {args.bound}) on class {klass.name!r}: "
                 f"{'holds' if report.holds else 'FAILS'}"]
        if report.witness_pair is not None:
            s, t = report.witness_pair
            lines.append(f"witness pair: {serialize(s)} / {serialize(t)}")
        _emit(report.to_json(), args.json, lines)
        return 0 if report.holds else 1
    raise UsageError(f"unknown check {args.kind!r}")


def _cmd_age(args) -> int:
    RunConfig(cap=args.cap).validate()
    klass = _load_class(args.klass, args.cap)
    members = klass.enumerate(args.n)
    payload = {"class": klass.name, "n": args.n, "count": len(members),
               "members": [json.loads(serialize(m)) for m in members]}
    lines = [serialize(m) for m in members]
    lines.append(f"# {len(members)} members of size {args.n} in class {klass.name!r}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_theory(args) -> int:
    theory = load_theory(args.file)
    if args.kind == "check":
        parametric, offender = is_parametric(theory)
        payload = {
            "source": theory.source_name,
            "relations": [{"name": name, "arity": arity}
                          for name, arity in theory.signature],
            "sentences": len(theory.sentences),
            "parametric": parametric,
            "offending_atom": None if offender is None else {
                "text": str(offender), "line": offender.line,
                "column": offender.column},
        }
        lines = [f"theory {theory.source_name}: {len(theory.sentences)} sentences, "
                 f"signature {', '.join(f'{n}/{a}' for n, a in theory.signature)}"]
        if parametric:
            lines.append("parametric: yes (every atom mentions all sentence variables)")
        else:
            lines.append(f"parametric: no — offending atom {offender} "
                         f"at line {offender.line}, column {offender.column}")
        _emit(payload, args.json, lines)
        return 0
    if args.kind == "models":
        models = enumerate_models(theory, args.n)
        payload = {"source": theory.source_name, "n": args.n,
                   "count": len(models),
                   "models": [json.loads(serialize(m)) for m in models]}
        lines = [serialize(m) for m in models]
        lines.append(f"# {len(models)} models on [1, {args.n}]")
        _emit(payload, args.json, lines)
        return 0
    raise UsageError(f"unknown theory subcommand {args.kind!r}")


def _cmd_sample(args) -> int:
    RunConfig(cap=args.cap).validate()
    seed = args.seed if args.seed is not None else _default_seed()
    src = HierarchicalRandomSource(seed)
    if args.kind == "framewise":
        if not args.klass:
            raise UsageError("sample framewise requires --class")
        klass = _load_class(args.klass, args.cap)
        weights = None
        if args.rep_weights:
            weights = _parse_weights(args.rep_weights)
        sampler = FramewiseSampler(klass, rep_weights=weights)
    elif args.kind == "exchangeable":
        if not args.rules:
            raise UsageError("sample exchangeable requires --rules")
        sampler = _rule_sampler(args.kind, args.rules)
    elif args.kind in ("m-exch", "maxseg"):
        if not (args.rules and args.ref):
            raise UsageError(f"sample {args.kind} requires --rules and --ref")
        sampler = _rule_sampler(args.kind, args.rules, args.ref)
    else:
        raise UsageError(f"unknown sampler kind {args.kind!r}")
    try:
        structure = sampler.sample(src, args.n)
    except AmalgamationFailure as failure:
        payload = {
            "error": "amalgamation-failure",
            "subset": list(failure.subset),
            "family": [json.loads(serialize(s)) for s in failure.family],
        }
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"amalgamation failure at subset {failure.subset}; "
                  "family of one-point-deleted restrictions:")
            for i, member in enumerate(failure.family, start=1):
                print(f"  slot {i}: {serialize(member)}")
        return 1
    if args.json:
        print(json.dumps({"seed": seed, "n": args.n,
                          "structure": json.loads(serialize(structure))},
                         indent=2, sort_keys=True))
    else:
        print(serialize(structure))
    return 0


def _cmd_test(args) -> int:
    RunConfig(cap=args.cap, alpha=args.alpha, sample_count=args.N).validate()
    if args.kind == "exch":
        sampler = _build_sampler(args.sampler, args.cap)
        report = test_exchangeability(sampler, args.n, args.N, alpha=args.alpha,
                                      meta_seed=args.meta_seed)
    elif args.kind == "rel-exch":
        if not args.ref:
            raise UsageError("test rel-exch requires --ref")
        sampler = _build_sampler(args.sampler, args.cap)
        oracle = _load_oracle(args.ref)
        report = test_relative_exchangeability(
            sampler, oracle, args.n, args.N, alpha=args.alpha,
            window=args.window, meta_seed=args.meta_seed)
    elif args.kind == "dissoc":
        if not (args.s and args.t):
            raise UsageError("test dissoc requires --s and --t")
        sampler = _build_sampler(args.sampler, args.cap)
        report = test_dissociation(sampler, _parse_subset(args.s),
                                   _parse_subset(args.t), args.N,
                                   alpha=args.alpha, meta_seed=args.meta_seed)
    elif args.kind == "equal":
        if not args.b:
            raise UsageError("test equal requires --b (second sampler spec)")
        if not args.subset:
            raise UsageError("test equal requires --subset")
        subset = _parse_subset(args.subset)
        sampler_a = _build_sampler(args.sampler, args.cap)
        sampler_b = _build_sampler(args.b, args.cap)
        law_a = empirical_law(sampler_a, subset, args.N, args.meta_seed, offset=0)
        law_b = empirical_law(sampler_b, subset, args.N, args.meta_seed,
                              offset=args.N)
        report = test_equal_law(law_a, law_b, alpha=args.alpha)
    else:
        raise UsageError(f"unknown test {args.kind!r}")
    lines = [f"{report.name}: {report.verdict.upper()} "
             f"(statistic {report.statistic:.4f}, dof {report.dof}, "
             f"p {report.p_value:.6f}, alpha {report.alpha})"]
    _emit(report.to_json(), args.json, lines)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    reports = verify_all(meta_seed=args.meta_seed, fast=args.fast)
    all_passed = all(r["passed"] for r in reports)
    lines = []
    for report in reports:
        status = "PASS" if report["passed"] else "FAIL"
        lines.append(f"{report['name']}: {status} — {report['claim']}")
    lines.append(f"overall: {'PASS' if all_passed else 'FAIL'} "
                 f"({sum(r['passed'] for r in reports)}/{len(reports)} claims)")
    _emit({"reports": reports, "passed": all_passed}, args.json, lines)
    return 0 if all_passed else 1


def _cmd_embeddings(args) -> int:
    source = load_structure(args.source)
    target = load_structure(args.target)
    found = enumerate_embeddings(source, target)
    payload = {"count": len(found),
               "embeddings": [dict((str(a), b) for a, b in phi.items())
                              for phi in found]}
    lines = [f"{len(found)} embeddings"]
    lines.extend("  " + " ".join(f"{a}->{b}" for a, b in phi.items())
                 for phi in found)
    _emit(payload, args.json, lines)
    return 0


# --- argument parser ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relex",
        description="Finite relational structures: amalgamation checking, "
                    "exchangeable sampling, and statistical invariance tests.")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="amalgamation property checks")
    check.add_argument("kind", choices=("ndap", "dap", "jep"))
    check.add_argument("--class", dest="klass", required=True,
                       help="builtin class name or theory file")
    check.add_argument("--n", type=int, default=3, help="family size for ndap")
    check.add_argument("--bound", type=int, default=2,
                       help="member size bound for dap/jep")
    check.add_argument("--cap", type=int, default=6)
    check.set_defaults(handler=_cmd_check)

    age = sub.add_parser("age", help="enumerate class members of one size")
    age.add_argument("--class", dest="klass", required=True)
    age.add_argument("--n", type=int, required=True)
    age.add_argument("--cap", type=int, default=6)
    age.set_defaults(handler=_cmd_age)

    theory = sub.add_parser("theory", help="parse, classify, enumerate models")
    theory.add_argument("kind", choices=("check", "models"))
    theory.add_argument("file")
    theory.add_argument("--n", type=int, default=3)
    theory.set_defaults(handler=_cmd_theory)

    sample = sub.add_parser("sample", help="draw one structure")
    sample.add_argument("kind", choices=("framewise", "exchangeable", "m-exch", "maxseg"))
    sample.add_argument("--class", dest="klass", help="class for framewise")
    sample.add_argument("--rules", help="decision-rule JSON file")
    sample.add_argument("--ref", help="reference oracle name or structure file")
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--seed", type=int, default=None,
                        help="sampling seed (default: RELEX_SEED env or 0)")
    sample.add_argument("--cap", type=int, default=6)
    sample.add_argument("--rep-weights", dest="rep_weights",
                        help="comma-separated class weights for framewise steps "
                             "whose class count matches")
    sample.set_defaults(handler=_cmd_sample)

    test = sub.add_parser("test", help="statistical invariance tests")
    test.add_argument("kind", choices=("exch", "rel-exch", "dissoc", "equal"))
    test.add_argument("--sampler", required=True,
                      help="sampler spec: framewise:<class>, exchangeable:<rules>, "
                           "m-exch:<rules>:<ref>, maxseg:<rules>:<ref>, ref:<example>")
    test.add_argument("--b", help="second sampler spec (test equal)")
    test.add_argument("--subset", help="probe subset for test equal, e.g. 1,2")
    test.add_argument("--ref", help="reference oracle (test rel-exch)")
    test.add_argument("--s", help="first subset for dissoc, e.g. 1,2")
    test.add_argument("--t", help="second subset for dissoc, e.g. 3,4")
    test.add_argument("--n", type=int, default=3, help="window/probe size")
    test.add_argument("--N", type=int, default=1000, help="samples per batch")
    test.add_argument("--alpha", type=float, default=0.01)
    test.add_argument("--window", type=int, default=None)
    test.add_argument("--meta-seed", dest="meta_seed", type=int, default=0)
    test.add_argument("--cap", type=int, default=6)
    test.set_defaults(handler=_cmd_test)

    verify = sub.add_parser("verify-paper-examples",
                            help="check every named-example claim")
    verify.add_argument("--fast", action="store_true",
                        help="smaller sample counts (smoke run)")
    verify.add_argument("--meta-seed", dest="meta_seed", type=int, default=0)
    verify.set_defaults(handler=_cmd_verify)

    embeddings = sub.add_parser("embeddings",
                                help="enumerate embeddings between two structures")
    embeddings.add_argument("--source", required=True)
    embeddings.add_argument("--target", required=True)
    embeddings.set_defaults(handler=_cmd_embeddings)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoryParseError as exc:
        print(f"theory parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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

from .amalgamation import (_DEFAULT_CAP, BUILTIN_CLASS_NAMES, FiniteClass, builtin_class,
                           check_dap, check_jep, check_ndap, from_theory,
                           make_builtin_class)
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


class UsageError(ValueError):
    pass


def _default_seed() -> int:
    raw = os.environ.get("RELEX_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"RELEX_SEED must be an integer, got {raw!r}") from None


def _load_class(spec: str, cap: int | None) -> FiniteClass:
    cap = _DEFAULT_CAP if cap is None else cap
    if spec in BUILTIN_CLASS_NAMES:
        return builtin_class(spec) if cap == _DEFAULT_CAP else make_builtin_class(spec, cap=cap)
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


def _in_range(convert, ok, message: str):
    """An argparse `type=`: `convert` the text, then reject a value failing `ok`."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_cap = _in_range(int, lambda cap: 1 <= cap <= 8, "cap must lie in [1, 8]")
_alpha = _in_range(float, lambda alpha: 0.0 < alpha < 1.0, "alpha must lie in (0, 1)")
_sample_count = _in_range(int, lambda count: count >= 1, "sample count must be >= 1")
_CAP_HELP = f"largest enumerated size of a loaded class (default {_DEFAULT_CAP})"


# Per (subcommand, kind), by argparse dest, the kind-specific options it
# requires and ("?") those it may take; any other one given is rejected.
# --cap is read wherever a class is loaded: by --class, or by a framewise:
# sampler spec of test.  An option with a default in _KIND_DEFAULTS gets it
# only where it is read.
_KIND_FLAGS = {"klass": "--class", "rules": "--rules", "ref": "--ref",
               "rep_weights": "--rep-weights", "b": "--b", "subset": "--subset",
               "s": "--s", "t": "--t", "window": "--window", "n": "--n",
               "bound": "--bound", "cap": "--cap"}
_KIND_DEFAULTS = {"n": 3, "bound": 2}
_KIND_OPTIONS = {
    ("check", "ndap"): ("klass", "n?", "cap?"), ("check", "dap"): ("klass", "bound?", "cap?"),
    ("check", "jep"): ("klass", "bound?", "cap?"),
    ("theory", "check"): (), ("theory", "models"): ("n?",),
    ("sample", "framewise"): ("klass", "n?", "rep_weights?", "cap?"),
    ("sample", "exchangeable"): ("rules", "n?"),
    ("sample", "m-exch"): ("rules", "ref", "n?"), ("sample", "maxseg"): ("rules", "ref", "n?"),
    ("test", "exch"): ("n?",), ("test", "rel-exch"): ("ref", "n?", "window?"),
    ("test", "dissoc"): ("s", "t"), ("test", "equal"): ("b", "subset")}


def _check_kind_options(args) -> None:
    options = _KIND_OPTIONS[(args.command, args.kind)]
    required = [dest for dest in options if not dest.endswith("?")]
    reads = {dest.rstrip("?") for dest in options}
    if any(spec.startswith("framewise:") for spec in (getattr(args, "sampler", None),
                                                     getattr(args, "b", None)) if spec):
        reads.add("cap")
    unread = [flag for dest, flag in _KIND_FLAGS.items()
              if dest not in reads and getattr(args, dest, None) is not None]
    if unread:
        raise UsageError(f"{args.command} {args.kind} does not read {', '.join(unread)}")
    if not all(getattr(args, dest) for dest in required):  # missing or empty
        raise UsageError(f"{args.command} {args.kind} requires "
                         f"{' and '.join(_KIND_FLAGS[dest] for dest in required)}")
    for dest in reads & _KIND_DEFAULTS.keys():
        if getattr(args, dest) is None:
            setattr(args, dest, _KIND_DEFAULTS[dest])


def _slot_lines(family) -> list[str]:
    return [f"  slot {i}: {serialize(s)}" for i, s in enumerate(family, start=1)]


def _emit(payload, as_json: bool, human_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)


# --- subcommand handlers ---------------------------------------------------------


def _cmd_check(args) -> int:
    _check_kind_options(args)
    klass = _load_class(args.klass, args.cap)
    if args.kind == "ndap":
        report = check_ndap(klass, args.n)
        lines = [f"{args.n}-DAP on class {klass.name!r}: "
                 f"{'holds' if report.holds else 'FAILS'} (by {report.method})"]
        if not report.holds:
            lines.append("witness family (slot i is the structure on the "
                         "base set minus its i-th element):")
            lines.extend(_slot_lines(report.witness_family))
    elif args.kind == "dap":
        report = check_dap(klass, bound=args.bound)
        lines = [f"DAP (bound {args.bound}) on class {klass.name!r}: "
                 f"{'holds' if report.holds else 'FAILS'}"]
        if report.counterexample is not None:
            lines.append(f"counterexample: {json.dumps(report.counterexample)}")
    else:
        report = check_jep(klass, bound=args.bound)
        lines = [f"JEP (bound {args.bound}) on class {klass.name!r}: "
                 f"{'holds' if report.holds else 'FAILS'}"]
        if report.witness_pair is not None:
            s, t = report.witness_pair
            lines.append(f"witness pair: {serialize(s)} / {serialize(t)}")
    _emit(report.to_json(), args.json, lines)
    return 0 if report.holds else 1


def _cmd_age(args) -> int:
    klass = _load_class(args.klass, args.cap)
    members = klass.enumerate(args.n)
    payload = {"class": klass.name, "n": args.n, "count": len(members),
               "members": [json.loads(serialize(m)) for m in members]}
    lines = [serialize(m) for m in members]
    lines.append(f"# {len(members)} members of size {args.n} in class {klass.name!r}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_theory(args) -> int:
    _check_kind_options(args)
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
    else:
        models = enumerate_models(theory, args.n)
        payload = {"source": theory.source_name, "n": args.n,
                   "count": len(models),
                   "models": [json.loads(serialize(m)) for m in models]}
        lines = [serialize(m) for m in models]
        lines.append(f"# {len(models)} models on [1, {args.n}]")
    _emit(payload, args.json, lines)
    return 0


def _cmd_sample(args) -> int:
    _check_kind_options(args)
    seed = args.seed if args.seed is not None else _default_seed()
    src = HierarchicalRandomSource(seed)
    if args.kind == "framewise":
        weights = _parse_weights(args.rep_weights) if args.rep_weights else None
        sampler = FramewiseSampler(_load_class(args.klass, args.cap), rep_weights=weights)
    else:
        sampler = _rule_sampler(args.kind, args.rules, args.ref)
    try:
        structure = sampler.sample(src, args.n)
    except AmalgamationFailure as failure:
        payload = {
            "error": "amalgamation-failure",
            "subset": list(failure.subset),
            "family": [json.loads(serialize(s)) for s in failure.family],
        }
        lines = [f"amalgamation failure at subset {failure.subset}; "
                 "family of one-point-deleted restrictions:", *_slot_lines(failure.family)]
        code = 1
    else:
        payload = {"seed": seed, "n": args.n, "structure": json.loads(serialize(structure))}
        lines = [serialize(structure)]
        code = 0
    _emit(payload, args.json, lines)
    return code


def _cmd_test(args) -> int:
    _check_kind_options(args)
    sampler = _build_sampler(args.sampler, args.cap)
    if args.kind == "exch":
        report = test_exchangeability(sampler, args.n, args.N, alpha=args.alpha,
                                      meta_seed=args.meta_seed)
    elif args.kind == "rel-exch":
        report = test_relative_exchangeability(
            sampler, _load_oracle(args.ref), args.n, args.N, alpha=args.alpha,
            window=args.window, meta_seed=args.meta_seed)
    elif args.kind == "dissoc":
        report = test_dissociation(sampler, _parse_subset(args.s),
                                   _parse_subset(args.t), args.N,
                                   alpha=args.alpha, meta_seed=args.meta_seed)
    else:
        subset = _parse_subset(args.subset)
        law_a = empirical_law(sampler, subset, args.N, args.meta_seed, offset=0)
        law_b = empirical_law(_build_sampler(args.b, args.cap), subset, args.N,
                              args.meta_seed, offset=args.N)
        report = test_equal_law(law_a, law_b, alpha=args.alpha)
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
    check.add_argument("--n", type=int, help="family size for ndap (default 3)")
    check.add_argument("--bound", type=int,
                       help="member size bound for dap/jep (default 2)")
    check.add_argument("--cap", type=_cap, help=_CAP_HELP)
    check.set_defaults(handler=_cmd_check)

    age = sub.add_parser("age", help="enumerate class members of one size")
    age.add_argument("--class", dest="klass", required=True)
    age.add_argument("--n", type=int, required=True)
    age.add_argument("--cap", type=_cap, help=_CAP_HELP)
    age.set_defaults(handler=_cmd_age)

    theory = sub.add_parser("theory", help="parse, classify, enumerate models")
    theory.add_argument("kind", choices=("check", "models"))
    theory.add_argument("file")
    theory.add_argument("--n", type=int, help="model size for models (default 3)")
    theory.set_defaults(handler=_cmd_theory)

    sample = sub.add_parser("sample", help="draw one structure")
    sample.add_argument("kind", choices=("framewise", "exchangeable", "m-exch", "maxseg"))
    sample.add_argument("--class", dest="klass", help="class for framewise")
    sample.add_argument("--rules", help="decision-rule JSON file")
    sample.add_argument("--ref", help="reference oracle name or structure file")
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--seed", type=int, default=None,
                        help="sampling seed (default: RELEX_SEED env or 0)")
    sample.add_argument("--cap", type=_cap, help=_CAP_HELP)
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
    test.add_argument("--n", type=int, help="probe size for exch and rel-exch (default 3)")
    test.add_argument("--N", type=_sample_count, default=1000, help="samples per batch")
    test.add_argument("--alpha", type=_alpha, default=0.01)
    test.add_argument("--window", type=int, default=None)
    test.add_argument("--meta-seed", dest="meta_seed", type=int, default=0)
    test.add_argument("--cap", type=_cap, help=_CAP_HELP)
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
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except TheoryParseError as exc:
        message = f"theory parse error: {exc}"
    except (OSError, json.JSONDecodeError) as exc:
        message = f"input error: {exc}"
    except ValueError as exc:  # UsageError, CapExceededError and the library's checks
        message = f"error: {exc}"
    print(message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

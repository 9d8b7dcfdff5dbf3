"""Chi-square verification of distributional invariances of samplers.

Empirical marginal laws are tallied over independent seeds; equality of
laws, exchangeability under relabelings, invariance under reference-
structure embeddings, and independence across disjoint subsets are all
reduced to chi-square tests with rare-cell merging and Holm's step-down
correction across probes.  Every report is reproducible from its meta
seed.  Three pieces are shared: `_law` builds every empirical law,
`_probe_family` runs every family of equal-law probes, and `_chi2_report`
ends every chi-square test with its p-value and verdict.  A law's samples
on one point set share all but their draws, so a rule sampler's law is
tallied from one plan of those points, each seed only drawing (`_tally`).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .embeddings import Oracle, ensure_lazy, enumerate_embeddings
from .randomness import HierarchicalRandomSource, SeedStream
from .structures import Injection, Structure, canonical_form, relabel, restrict

_MIN_EXPECTED = 5.0


# --- chi-square tail ------------------------------------------------------------

_EPS = 1e-15      # relative stopping tolerance, a few ulps of 1.0
_TINY = 1e-300    # keeps the Lentz recurrences off zero


def _upper_gamma_q(a: float, x: float) -> float:
    """Regularised upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a).

    Below x = a + 1 the power series for P = 1 - Q converges fast; above it
    the continued fraction for Q does, evaluated by the modified Lentz
    method (DLMF 8.7.1, 8.9.2).  For a >= 1/2, Q stays above 0.08 where
    the series is used, so 1 - P loses no relative precision.  The
    prefactor x^a e^-x / Gamma(a) is formed in logs; its rounding error
    grows with a, to about 1e-13 relative at a = 200.
    """
    if x <= 0.0:
        return 1.0
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        denom = a
        while term > total * _EPS:
            denom += 1.0
            term *= x / denom
            total += term
        return 1.0 - total * math.exp(log_prefix)
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in itertools.count(1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return math.exp(log_prefix) * h


class _ChiSquare:
    """The chi-square distribution, through its survival function only."""

    @staticmethod
    def sf(x: float, dof: float) -> float:
        """P(X > x) for X chi-square with `dof` > 0 degrees of freedom."""
        if dof <= 0:
            raise ValueError("dof must be > 0")
        return _upper_gamma_q(dof / 2.0, x / 2.0)


chi2 = _ChiSquare()


@dataclass
class TestReport:
    name: str
    statistic: float
    dof: int
    p_value: float
    alpha: float
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "verdict": self.verdict,
            "details": json.loads(json.dumps(self.details, default=str)),
        }


class EmpiricalLaw:
    """Tally of restricted samples: canonical serialization -> count."""

    def __init__(self, subset: tuple[int, ...], n_samples: int):
        self.subset = tuple(subset)
        self.n_samples = n_samples
        self.counts: dict[str, int] = {}
        self.structures: dict[str, Structure] = {}

    def record(self, structure: Structure, count: int = 1) -> None:
        key = structure.key()
        self.counts[key] = self.counts.get(key, 0) + count
        self.structures.setdefault(key, structure)

    def frequencies(self) -> dict[str, float]:
        return {k: c / self.n_samples for k, c in sorted(self.counts.items())}


def empirical_law(sampler, subset: Sequence[int], n_samples: int,
                  seeds: Union[SeedStream, Sequence[int], int],
                  offset: int = 0) -> EmpiricalLaw:
    """Law of the sampler's output restricted to `subset`, over fresh seeds.

    `seeds` may be a SeedStream, a sequence of integers, or a meta seed
    (any integer, numpy's included) from which a stream is derived;
    `offset` shifts into the stream so successive batches stay independent.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    try:
        seeds = SeedStream(operator.index(seeds))
    except TypeError:  # a SeedStream or a sequence of seeds
        pass
    subset = tuple(HierarchicalRandomSource._check(subset))  # 1.5, "2" or 0 raise
    if not subset:
        raise ValueError("subset must be nonempty")
    return _law(sampler, subset, n_samples, seeds, offset)


def _law(sampler, subset: tuple[int, ...], n_samples: int, seeds, offset: int,
         along: Optional[Injection] = None) -> EmpiricalLaw:
    """Each distinct restriction of the samples to the sorted `subset`, pulled
    back along `along` when given, recorded with its count (`_tally`: a rule
    sampler draws `subset` alone, a frame-wise one all of [1, max(subset)])."""
    law = EmpiricalLaw(subset, n_samples)
    for restricted, count in _tally(sampler, subset, n_samples, seeds, offset).items():
        law.record(restricted if along is None else relabel(restricted, along)[0], count)
    return law


def _tally(sampler, points: tuple[int, ...], n_samples: int, seeds,
           offset: int) -> dict[Structure, int]:
    """How often each distinct restriction of a sample to the sorted, nonempty
    `points`, on [1, |points|], comes up, in first-seen order.

    A rule sampler's restriction is a function of the draws on subsets of
    `points` alone, so its plan on `points` (`_plan`) compiles the tuples over
    them and the table entries their patterns and context keys allow once;
    each seed walks it to a tuple of bits, and each distinct one is built once.
    Other samplers have no local form: they are sampled on [1, max(points)]
    and restricted.  A frame-wise step at s reads what was built below s,
    and raises `AmalgamationFailure` at any subset with no amalgam, inside
    `points` or not: drawing `points` alone would turn that into a result.

    Samples compare literally, so a law recorded from the tally equals one
    recorded sample by sample.  One `Counter` pass counts them: each seed
    is read once, in order, through `seeds[offset + i]` and made a source."""
    plan = sampler._plan(points) if hasattr(sampler, "_plan") else None
    sources = map(HierarchicalRandomSource, map(seeds.__getitem__,
                                                range(offset, offset + n_samples)))
    counts = Counter(map(plan.bits, sources) if plan is not None
                     else map(sampler.sample, sources, itertools.repeat(points[-1])))
    tally: Counter = Counter()
    for outcome, count in counts.items():
        tally[plan.structure(outcome) if plan is not None else restrict(outcome, points)] += count
    return tally


# --- chi-square tests -----------------------------------------------------------

def _chi2_report(name: str, statistic: float, dof: int, alpha: float,
                 details: dict) -> TestReport:
    """The chi-square tail: p from `chi2.sf`, or 1.0 for a one-cell table."""
    p_value = float(chi2.sf(statistic, dof)) if dof > 0 else 1.0
    return TestReport(name=name, statistic=statistic, dof=dof, p_value=p_value,
                      alpha=alpha, passed=p_value >= alpha, details=details)


def _merged_cells(law_a: EmpiricalLaw, law_b: EmpiricalLaw) -> dict[str, tuple[int, int]]:
    """Union support with rare cells merged so every expected count is >= 5."""
    n_a, n_b = law_a.n_samples, law_b.n_samples
    n_min = min(n_a, n_b)
    total = n_a + n_b
    keys = sorted(set(law_a.counts) | set(law_b.counts))
    cells: dict[str, tuple[int, int]] = {}
    small_a = small_b = 0
    for key in keys:
        a = law_a.counts.get(key, 0)
        b = law_b.counts.get(key, 0)
        if n_min * (a + b) / total < _MIN_EXPECTED:
            small_a += a
            small_b += b
        else:
            cells[key] = (a, b)
    if small_a + small_b:
        if cells and n_min * (small_a + small_b) / total < _MIN_EXPECTED:
            smallest = min(cells, key=lambda k: sum(cells[k]))
            a0, b0 = cells.pop(smallest)
            cells["__merged__"] = (a0 + small_a, b0 + small_b)
        else:
            cells["__merged__"] = (small_a, small_b)
    return cells


def test_equal_law(law_a: EmpiricalLaw, law_b: EmpiricalLaw,
                   alpha: float = 0.01) -> TestReport:
    """Two-sample chi-square homogeneity test on merged support.

    A single surviving cell yields a degenerate (always-passing) report:
    both laws are concentrated on the same support atom.  Laws that hold
    recorded structures must share their signature.
    """
    if len(law_a.subset) != len(law_b.subset):
        raise ValueError("laws live on subsets of different sizes")
    seen = dict.fromkeys(s.signature for law in (law_a, law_b) for s in law.structures.values())
    if len(seen) > 1:  # the signatures of the recorded structures
        raise ValueError(f"laws over different signatures: {' and '.join(map(str, seen))}")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    n_a, n_b = law_a.n_samples, law_b.n_samples
    total = n_a + n_b
    cells = _merged_cells(law_a, law_b)
    if not cells:
        raise ValueError("insufficient counts: no occupied cells")
    dof = len(cells) - 1
    contributions = {}
    statistic = 0.0
    if dof > 0:
        for key, (a, b) in sorted(cells.items()):
            pooled = a + b
            exp_a = n_a * pooled / total
            exp_b = n_b * pooled / total
            contributions[key] = (a - exp_a) ** 2 / exp_a + (b - exp_b) ** 2 / exp_b
            statistic += contributions[key]
    return _chi2_report(
        "equal-law", statistic, dof, alpha,
        {"cells": {k: list(v) for k, v in sorted(cells.items())},
         "contributions": contributions, "n_a": n_a, "n_b": n_b})


# --- multiple probes ------------------------------------------------------------

def _holm(probe_results: list[dict], alpha: float) -> bool:
    """Set each probe's `passed` flag by Holm's step-down procedure.

    Probes are visited by ascending p-value; the k-th (from 0) of m is
    rejected while its p-value is below alpha / (m - k), and the first one
    kept ends the rejections.  The family passes exactly when no probe is
    rejected, which is Bonferroni's verdict: the smallest p reaches alpha / m.
    """
    m = len(probe_results)
    rejecting = True
    for k, result in enumerate(sorted(probe_results, key=lambda r: r["p_value"])):
        rejecting = rejecting and result["p_value"] < alpha / (m - k)
        result["passed"] = not rejecting
    return all(r["passed"] for r in probe_results)


def _probe_family(name: str, probes: Iterable[tuple[dict, EmpiricalLaw, EmpiricalLaw]],
                  alpha: float, note: str, head: dict, tail: dict) -> TestReport:
    """Test each lazily drawn `(fields, law_a, law_b)` probe for equal laws,
    flag them by Holm, and report the worst probe with its Bonferroni p.

    Details hold `probes` and `head`, then `note` if there was no probe."""
    results, worst = [], None
    for fields, law_a, law_b in probes:
        sub = test_equal_law(law_a, law_b, alpha=alpha)
        results.append({**fields, "p_value": sub.p_value,
                        "statistic": sub.statistic, "dof": sub.dof})
        if worst is None or sub.p_value < worst.p_value:
            worst = sub
    if worst is None:
        return TestReport(name=name, statistic=0.0, dof=0, p_value=1.0, alpha=alpha,
                          passed=True, details={"probes": 0, **head, "note": note})
    m = len(results)
    return TestReport(
        name=name, statistic=worst.statistic, dof=worst.dof,
        p_value=min(1.0, worst.p_value * m), alpha=alpha, passed=_holm(results, alpha),
        details={"probes": m, **head, "per_alpha": alpha / m, "correction": "holm",
                 **tail, "results": results})


# --- exchangeability -------------------------------------------------------------

def test_exchangeability(sampler, n: int, n_samples: int, alpha: float = 0.01,
                         meta_seed: int = 0,
                         permutations: Optional[Iterable[tuple[int, ...]]] = None
                         ) -> TestReport:
    """Compare the law of X against each relabeling X^sigma (Holm).

    Without an explicit permutation list, all non-identity permutations of
    [1, n] are probed, which requires n <= 5.  Each probe uses a fresh
    independent batch of samples, and with no probe none is drawn.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    identity = tuple(range(1, n + 1))
    if permutations is None:
        if n > 5:
            raise ValueError("probing all permutations needs n <= 5; "
                             "pass an explicit permutation subset")
        perms = [p for p in itertools.permutations(identity) if p != identity]
    else:
        perms = [tuple(p) for p in permutations]
        for p in perms:
            if sorted(p) != list(identity):
                raise ValueError(f"{p} is not a permutation of [1, {n}]")
    seeds = SeedStream(meta_seed)

    def probes():
        # batch 0 is the law of X; batch b that of the relabeled output X^perm
        for b, perm in enumerate(perms, start=1):
            if b == 1:
                base = empirical_law(sampler, identity, n_samples, seeds)
            phi = Injection(dict(enumerate(perm, start=1)))
            yield ({"permutation": list(perm)}, base,
                   _law(sampler, identity, n_samples, seeds, b * n_samples, along=phi))

    return _probe_family("exchangeability", probes(), alpha,
                         "no non-identity permutations", {},
                         {"n_samples_per_batch": n_samples})


# --- relative exchangeability -----------------------------------------------------

def test_relative_exchangeability(sampler, oracle: Oracle, n: int,
                                  n_samples: int, alpha: float = 0.01,
                                  window: Optional[int] = None,
                                  meta_seed: int = 0,
                                  probe_cap: int = 60) -> TestReport:
    """Invariance of marginal laws under embeddings of reference restrictions.

    For subset pairs (S, T) inside [1, window] (window > n, default 2n)
    with |S| = |T| <= n and an embedding phi of the reference restricted to
    S into the reference restricted to T, the law of X restricted to S must
    equal the phi-pullback of the law of X restricted to T.  Pairs with no
    embedding are skipped and reported.  Holm's step-down procedure over
    executed probes.

    Each law reads X on S (or T) only.  A rule sampler draws it there alone
    (`_tally`): a tuple's decision reads the draws and the reference on its
    own range, or its segment.  A frame-wise sampler is drawn on
    [1, max S] and restricted, so a subset with no amalgam still raises
    `AmalgamationFailure` when it lies outside S.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 5:
        raise ValueError("n must be <= 5")
    window = window if window is not None else 2 * n
    if window <= n:
        raise ValueError(f"window {window} must exceed n = {n}: "
                         "there is no room for probe pairs")
    lazy = ensure_lazy(oracle)
    subsets = [tuple(c)
               for size in range(1, n + 1)
               for c in itertools.combinations(range(1, window + 1), size)]
    # |S| = |T| makes an embedding an isomorphism, so a pair has one exactly when
    # the canonical forms agree; only those pairs are enumerated, up to probe_cap
    restricted = {s_set: lazy.restrict_to(s_set) for s_set in subsets}
    forms = {s_set: canonical_form(r).key() for s_set, r in restricted.items()}
    probes, skipped = [], 0
    for s_set in subsets:
        for t_set in subsets:
            if len(t_set) != len(s_set) or t_set == s_set:
                continue
            if forms[s_set] != forms[t_set]:
                skipped += 1
            elif len(probes) < probe_cap:
                probes += [(s_set, t_set, phi) for phi in
                           enumerate_embeddings(restricted[s_set], restricted[t_set])]
    seeds, offsets = SeedStream(meta_seed), itertools.count(0, n_samples)
    laws_s: dict[tuple[int, ...], EmpiricalLaw] = {}

    def probe_laws():
        # one batch per distinct S, drawn at its first probe, and one per T
        for s_set, t_set, phi in probes[:probe_cap]:
            if s_set not in laws_s:
                laws_s[s_set] = empirical_law(sampler, s_set, n_samples, seeds, next(offsets))
            yield ({"s": list(s_set), "t": list(t_set), "phi": phi.items()}, laws_s[s_set],
                   _law(sampler, t_set, n_samples, seeds, next(offsets), along=phi))

    return _probe_family("relative-exchangeability", probe_laws(), alpha,
                         "no embeddings found in the window", {"skipped_pairs": skipped},
                         {"window": window})


# --- dissociation ------------------------------------------------------------------

def test_dissociation(sampler, s_set: Sequence[int], t_set: Sequence[int],
                      n_samples: int, alpha: float = 0.01,
                      meta_seed: int = 0) -> TestReport:
    """Chi-square independence of (X restricted to S, X restricted to T).

    One batch of samples fills a contingency table over the two restricted
    laws; the rarest row or column group is merged, against the current
    groups of the other axis, until every expected count reaches 5.  A
    single remaining row or column is degenerate independence and passes.
    """
    s_set, t_set = (tuple(HierarchicalRandomSource._check(s)) for s in (s_set, t_set))
    if not s_set or not t_set:
        raise ValueError("subsets must be nonempty")
    if set(s_set) & set(t_set):
        raise ValueError("subsets must be disjoint")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    seeds = SeedStream(meta_seed)
    points = tuple(sorted(s_set + t_set))
    index = {x: i for i, x in enumerate(points, start=1)}
    s_local, t_local = [index[x] for x in s_set], [index[x] for x in t_set]
    table: dict[tuple[str, str], int] = {}
    for sample, count in _tally(sampler, points, n_samples, seeds, 0).items():
        key = (restrict(sample, s_local).key(), restrict(sample, t_local).key())
        table[key] = table.get(key, 0) + count

    rows = sorted({k[0] for k in table})
    cols = sorted({k[1] for k in table})
    counts = {(r, c): table.get((r, c), 0) for r in rows for c in cols}

    # Merge the rarest row or column group into the next rarest on its axis
    # until the smallest expected cell, (min row total)(min column total)/N,
    # reaches 5.  Each axis is measured against the other axis's current
    # groups, so one rare column cannot collapse every row.
    groups = ([[r] for r in rows], [[c] for c in cols])
    totals = ([sum(counts[(r, c)] for c in cols) for r in rows],
              [sum(counts[(r, c)] for r in rows) for c in cols])
    while min(totals[0]) * min(totals[1]) / n_samples < _MIN_EXPECTED:
        mergeable = [axis for axis in (0, 1) if len(groups[axis]) > 1]
        if not mergeable:
            break
        axis = min(mergeable, key=lambda a: min(totals[a]))
        axis_groups, axis_totals = groups[axis], totals[axis]
        smallest = min(range(len(axis_groups)), key=axis_totals.__getitem__)
        merge_into = min((g for g in range(len(axis_groups)) if g != smallest),
                         key=axis_totals.__getitem__)
        axis_groups[merge_into].extend(axis_groups[smallest])
        axis_totals[merge_into] += axis_totals[smallest]
        del axis_groups[smallest], axis_totals[smallest]
    row_groups, col_groups = groups
    row_tot, col_tot = totals
    dof = (len(row_groups) - 1) * (len(col_groups) - 1)
    statistic = 0.0
    if dof > 0:
        for gi, rgroup in enumerate(row_groups):
            for gj, cgroup in enumerate(col_groups):
                observed = sum(counts[(r, c)] for r in rgroup for c in cgroup)
                expected = row_tot[gi] * col_tot[gj] / n_samples
                statistic += (observed - expected) ** 2 / expected
    return _chi2_report(
        "dissociation", statistic, dof, alpha,
        {"s": list(s_set), "t": list(t_set),
         "rows": len(row_groups), "cols": len(col_groups), "n_samples": n_samples})

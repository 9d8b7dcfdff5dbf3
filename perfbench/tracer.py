"""Per-layer tracing of relex from outside its source.

`Tracer.install()` wraps the public entry points of each relex module and
replaces every module-level binding of them: relex uses `from .x import y`
throughout, so `relex.samplers.restrict` and `relex.structures.restrict`
are separate bindings of one function and both must point at the wrapper.
Methods are wrapped on their class.

Each wrapped call is a span. Spans nest on a stack; a span's self time is
its duration minus the time its child spans cover, and it is charged to
the span's layer. Counts and self times are kept in memory and read out
once by `metrics()`. Wrappers only record while `enabled` is true, so the
benchmark's correctness checks between ops are not counted.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("randomness", "structures", "embeddings", "theory", "amalgamation",
          "rules", "samplers", "stattests")

# (module, qualified name, layer, count name). A dotted qualified name is a
# method; several entry points may share one count name.
ENTRY_POINTS = (
    ("relex.randomness", "HierarchicalRandomSource.xi", "randomness", "randomness.xi"),
    ("relex.randomness", "HierarchicalRandomSource.ordering", "randomness", "randomness.ordering"),
    ("relex.randomness", "SeedStream.__getitem__", "randomness", "randomness.seeds"),
    ("relex.structures", "restrict", "structures", "structures.restrict"),
    ("relex.structures", "relabel", "structures", "structures.relabel"),
    ("relex.structures", "serialize", "structures", "structures.serialize"),
    ("relex.structures", "Structure.key", "structures", "structures.key"),
    ("relex.structures", "canonical_form", "structures", "structures.canonical_form"),
    ("relex.embeddings", "enumerate_embeddings", "embeddings", "embeddings.enumerate_embeddings"),
    ("relex.embeddings", "natural_embedding", "embeddings", "embeddings.natural_embedding"),
    ("relex.embeddings", "LazyStructure.restrict_to", "embeddings", "embeddings.restrict_to"),
    ("relex.embeddings", "LazyStructure.initial_segment", "embeddings", "embeddings.initial_segment"),
    ("relex.theory", "satisfies", "theory", "theory.satisfies"),
    ("relex.theory", "enumerate_models", "theory", "theory.enumerate_models"),
    ("relex.amalgamation", "check_ndap", "amalgamation", "amalgamation.check_ndap"),
    ("relex.amalgamation", "FiniteClass.contains", "amalgamation", "amalgamation.contains"),
    ("relex.amalgamation", "FiniteClass.enumerate", "amalgamation", "amalgamation.enumerate"),
    ("relex.amalgamation", "_amalgam_classes", "amalgamation", "amalgamation.amalgam_classes"),
    ("relex.rules", "TableDecisionFunction.decide", "rules", "rules.decide"),
    ("relex.rules", "FunctionDecisionFunction.decide", "rules", "rules.decide"),
    ("relex.rules", "context_key", "rules", "rules.context_key"),
    ("relex.samplers", "sample_exchangeable", "samplers", "samplers.sample"),
    ("relex.samplers", "sample_m_exchangeable", "samplers", "samplers.sample"),
    ("relex.samplers", "sample_maxseg_exchangeable", "samplers", "samplers.sample"),
    ("relex.samplers", "sample_framewise", "samplers", "samplers.sample"),
    ("relex.samplers", "sample_sequential", "samplers", "samplers.sample"),
    ("relex.stattests", "empirical_law", "stattests", "stattests.empirical_law"),
    ("relex.stattests", "test_equal_law", "stattests", "stattests.equal_law"),
    ("relex.stattests", "test_exchangeability", "stattests", "stattests.exchangeability"),
    ("relex.stattests", "test_relative_exchangeability", "stattests",
     "stattests.relative_exchangeability"),
    ("relex.stattests", "test_dissociation", "stattests", "stattests.dissociation"),
)

# Per-layer metrics the traced run reports, in BENCHMARK.json order.
COUNT_METRICS = (
    "randomness.xi.calls", "randomness.ordering.calls", "randomness.seeds.calls",
    "structures.restrict.calls", "structures.relabel.calls",
    "structures.serialize.calls", "structures.key.calls",
    "structures.canonical_form.calls",
    "embeddings.enumerate_embeddings.calls", "embeddings.found",
    "embeddings.restrict_to.calls", "embeddings.initial_segment.calls",
    "theory.satisfies.calls", "theory.enumerate_models.calls",
    "amalgamation.check_ndap.calls", "amalgamation.contains.calls",
    "amalgamation.enumerate.calls", "amalgamation.amalgam_classes.calls",
    "amalgamation.amalgam_cache.size",
    "rules.decide.calls", "rules.context_key.calls",
    "samplers.sample.calls", "samplers.amalgamation_failures",
    "stattests.empirical_law.calls", "stattests.equal_law.calls",
    "stattests.chi2_sf.calls", "stattests.probes",
)
RATIO_METRICS = (
    "structures.key.hit_frac", "structures.canonical_form.hit_frac",
    "amalgamation.contains.accept_frac", "amalgamation.amalgam_cache.hit_frac",
    "stattests.dof0_frac",
)
SELF_METRICS = tuple(f"{layer}.self_s" for layer in LAYERS) + ("op.self_s",)


class _CountingCache(dict):
    """Stand-in for `FiniteClass._amalgam_cache` that counts lookups."""

    __slots__ = ("_tracer",)

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        if self._tracer.enabled:
            self._tracer.counts["amalgamation.amalgam_cache.lookups"] += 1
            if value is not None:
                self._tracer.counts["amalgamation.amalgam_cache.hits"] += 1
        return value


class Tracer:
    def __init__(self):
        self.enabled = False
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list[float]] = []
        self._classes: dict[int, object] = {}

    # -- spans ------------------------------------------------------------------

    def span(self, layer: str, fn, *args, **kwargs):
        """Run fn as a span of `layer`; the benchmark wraps each op in one."""
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            self.self_s[layer] += duration - frame[0]
            if stack:
                stack[-1][0] += duration

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        calls = name + ".calls"
        observe = _OBSERVERS.get(name, _Observer)(self)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.counts[calls] += 1
            token = observe.before(args)
            try:
                result = tracer.span(layer, fn, *args, **kwargs)
            except Exception as exc:
                observe.raised(exc)
                raise
            observe.after(token, args, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point and rebind every module-level reference."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "relex" or key.startswith("relex."))]
        for module_name, qualname, layer, name in ENTRY_POINTS:
            owner = sys.modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, layer, name))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(original, layer, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        stattests = sys.modules["relex.stattests"]
        if hasattr(getattr(stattests, "chi2", None), "sf"):
            stattests.chi2 = _Chi2Proxy(stattests.chi2, self)

    # -- read-out ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c = self.counts

        def frac(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        out: dict[str, float] = {}
        for name in COUNT_METRICS:
            out[name] = c[name]
        out["amalgamation.amalgam_cache.size"] = sum(
            len(k._amalgam_cache) for k in self._classes.values())
        out["structures.key.hit_frac"] = frac("structures.key.hits", "structures.key.calls")
        out["structures.canonical_form.hit_frac"] = frac(
            "structures.canonical_form.hits", "structures.canonical_form.calls")
        out["amalgamation.contains.accept_frac"] = frac(
            "amalgamation.contains.accepted", "amalgamation.contains.calls")
        out["amalgamation.amalgam_cache.hit_frac"] = frac(
            "amalgamation.amalgam_cache.hits", "amalgamation.amalgam_cache.lookups")
        out["stattests.dof0_frac"] = frac("stattests.equal_law.dof0",
                                          "stattests.equal_law.calls")
        for name in SELF_METRICS:
            out[name] = self.self_s[name[:-len(".self_s")]]
        return out


class _Chi2Proxy:
    """Counts `chi2.sf` calls made through `relex.stattests.chi2`."""

    def __init__(self, dist, tracer: Tracer):
        self._dist = dist
        self._tracer = tracer

    def sf(self, *args, **kwargs):
        if self._tracer.enabled:
            self._tracer.counts["stattests.chi2_sf.calls"] += 1
            return self._tracer.span("stattests", self._dist.sf, *args, **kwargs)
        return self._dist.sf(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._dist, attr)


# -- observers: outcome counts read around a wrapped call --------------------------

class _Observer:
    def __init__(self, tracer: Tracer):
        self.counts = tracer.counts
        self.tracer = tracer

    def before(self, args):
        return None

    def after(self, token, args, result) -> None:
        pass

    def raised(self, exc: Exception) -> None:
        pass


class _KeyObserver(_Observer):
    def before(self, args):
        if args[0]._key is not None:
            self.counts["structures.key.hits"] += 1


class _CanonicalObserver(_Observer):
    def __init__(self, tracer):
        super().__init__(tracer)
        self.cache = getattr(sys.modules["relex.structures"], "_canonical_cached", None)

    def before(self, args):
        return self.cache.cache_info().hits if self.cache else 0

    def after(self, token, args, result):
        if self.cache and self.cache.cache_info().hits > token:
            self.counts["structures.canonical_form.hits"] += 1


class _FoundObserver(_Observer):
    def after(self, token, args, result):
        self.counts["embeddings.found"] += len(result)


class _ContainsObserver(_Observer):
    def after(self, token, args, result):
        if result:
            self.counts["amalgamation.contains.accepted"] += 1


class _AmalgamObserver(_Observer):
    def before(self, args):
        klass = args[0]
        if type(klass._amalgam_cache) is dict:
            cache = _CountingCache(klass._amalgam_cache)
            cache._tracer = self.tracer
            klass._amalgam_cache = cache
        self.tracer._classes[id(klass)] = klass


class _SampleObserver(_Observer):
    def raised(self, exc):
        if isinstance(exc, sys.modules["relex.samplers"].AmalgamationFailure):
            self.counts["samplers.amalgamation_failures"] += 1


class _EqualLawObserver(_Observer):
    def after(self, token, args, result):
        if result.dof == 0:
            self.counts["stattests.equal_law.dof0"] += 1


class _ProbesObserver(_Observer):
    def after(self, token, args, result):
        self.counts["stattests.probes"] += int(result.details.get("probes", 0))


_OBSERVERS = {
    "structures.key": _KeyObserver,
    "structures.canonical_form": _CanonicalObserver,
    "embeddings.enumerate_embeddings": _FoundObserver,
    "amalgamation.contains": _ContainsObserver,
    "amalgamation.amalgam_classes": _AmalgamObserver,
    "samplers.sample": _SampleObserver,
    "stattests.equal_law": _EqualLawObserver,
    "stattests.exchangeability": _ProbesObserver,
    "stattests.relative_exchangeability": _ProbesObserver,
}

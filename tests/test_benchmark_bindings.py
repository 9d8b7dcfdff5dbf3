"""The names the benchmark harness in perfbench/ binds in relex.

The traced benchmark run wraps entry points by (module, qualified name) and
its workloads call relex through module attributes such as
`catalog.paper_example`; a refactor that renames one of them breaks the
benchmark, not the library, so each is checked here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    entry_points = _load_tracer().ENTRY_POINTS
    assert entry_points
    for module_name, qualname, _layer, _count in entry_points:
        owner = importlib.import_module(module_name)
        if "." in qualname:
            # the tracer wraps methods through the class's own __dict__
            cls_name, attr = qualname.split(".")
            assert attr in vars(getattr(owner, cls_name)), (module_name, qualname)
        else:
            assert callable(getattr(owner, qualname, None)), (module_name, qualname)


def _workload_bindings() -> set[tuple[str, str]]:
    """Every `module.name` the workloads read off a relex module they import."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "relex"
               for alias in node.names}
    return {(node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_workload_and_observer_names_resolve():
    from relex import stattests, structures

    bindings = _workload_bindings()
    assert ("catalog", "paper_example") in bindings
    assert ("samplers", "MExchangeableSampler") in bindings
    for module_name, name in sorted(bindings):
        owner = importlib.import_module(f"relex.{module_name}")
        assert callable(getattr(owner, name, None)), f"{module_name}.{name}"
    assert callable(structures._canonical_cached.cache_info)
    assert callable(stattests.chi2.sf)


def test_amalgam_cache_is_read_through_get():
    # the traced run swaps a class's plain-dict amalgam cache for a dict
    # subclass that counts .get calls; a cache read any other way would
    # leave amalgamation.amalgam_cache.hit_frac at 0
    from relex.amalgamation import _amalgam_classes, make_builtin_class

    klass = make_builtin_class("graphs")
    assert type(klass._amalgam_cache) is dict

    class CountingCache(dict):
        lookups = hits = 0

        def get(self, key, default=None):
            value = super().get(key, default)
            self.lookups += 1
            self.hits += value is not None
            return value

    klass._amalgam_cache = cache = CountingCache()
    partial = []  # two points, the pair 1-2 free: a cacheable partial
    first = _amalgam_classes(klass, 2, partial)
    second = _amalgam_classes(klass, 2, partial)
    assert (cache.lookups, cache.hits) == (2, 1)
    assert second is first

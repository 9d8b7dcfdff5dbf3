"""The names the benchmark harness in perfbench/ binds in relex.

The traced benchmark run wraps entry points by (module, qualified name) and
its workloads construct sampler classes by name; a refactor that renames
one of them breaks the benchmark, not the library, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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


def test_workload_and_observer_names_resolve():
    from relex import samplers, stattests, structures

    for name in ("MExchangeableSampler", "MaxSegSampler", "FramewiseSampler"):
        assert callable(getattr(samplers, name, None)), name
    assert callable(structures._canonical_cached.cache_info)
    assert callable(stattests.chi2.sf)

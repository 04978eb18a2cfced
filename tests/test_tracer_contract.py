"""Every function the benchmark's tracer wraps exists where it looks for it.

``bench/tracing.py`` replaces ``<module>.<function>`` attributes of mnsurv
from outside the package.  Renaming or dropping one of them would only show
as an error in a traced benchmark run; this test catches it in the suite.
The file is loaded read-only from its path, without touching ``sys.path``.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _tracing().LAYERS


@pytest.mark.parametrize("name, modules", [(name, modules) for name, _, modules in LAYERS])
def test_wrapped_function_exists(name, modules):
    attr = name.split(".")[1]
    for modname in modules:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr} is missing"


def test_tracer_installs_and_restores():
    tracing = _tracing()
    originals = {
        (modname, name.split(".")[1]): getattr(importlib.import_module(modname), name.split(".")[1])
        for name, _, modules in tracing.LAYERS
        for modname in modules
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from mnsurv import build_instance, survival

        survival.compare_routes(build_instance(8, [0.3], [3]))
    finally:
        tracer.remove()
    names = {span[0] for span in tracer.spans}
    assert {"survival.compare_routes", "survival.survival_exact"} <= names
    for (modname, attr), fn in originals.items():
        assert getattr(importlib.import_module(modname), attr) is fn

"""Every exported name resolves, and no ``__all__`` lists a name twice."""

import importlib
import pkgutil

import pytest

import mnsurv

MODULES = sorted(
    f"mnsurv.{info.name}" for info in pkgutil.iter_modules(mnsurv.__path__)
)


def test_modules_are_found():
    assert "mnsurv.covariance" in MODULES and len(MODULES) >= 7


@pytest.mark.parametrize("name", ["mnsurv"] + MODULES)
def test_all_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"

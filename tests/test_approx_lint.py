"""Every ``pytest.approx`` with a ``rel=`` bound also states its ``abs=`` bound.

Without ``abs=``, pytest adds its default ``abs=1e-12``, so a relative bound
below ``1e-12 / |expected|`` checks nothing.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def approx_without_abs(source: str, filename: str = "<string>"):
    """Line numbers of ``approx(..., rel=...)`` calls that give no ``abs=``."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {kw.arg for kw in node.keywords}
        if name == "approx" and "rel" in keywords and "abs" not in keywords:
            lines.append(node.lineno)
    return lines


def test_scanner_flags_a_relative_bound_without_abs():
    source = (
        "import pytest\n"
        "from pytest import approx\n"
        "assert 1.0 == pytest.approx(1.0, rel=1e-14)\n"
        "assert 1.0 == pytest.approx(1.0, rel=1e-14, abs=0.0)\n"
        "assert 1.0 == approx(1.0, rel=1e-14)\n"
        "assert 1.0 == pytest.approx(1.0, abs=1e-14)\n"
    )
    assert approx_without_abs(source) == [3, 5]


def test_every_relative_approx_states_abs():
    offenders = [
        f"{path.relative_to(TESTS.parent)}:{line}"
        for path in sorted(TESTS.rglob("*.py"))
        for line in approx_without_abs(path.read_text(), str(path))
    ]
    assert offenders == []

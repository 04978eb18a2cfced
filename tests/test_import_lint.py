"""Every module of mnsurv and of its tests uses each name it imports.

A module must load each name it imports, or list it in its ``__all__``.
In ``src/mnsurv`` a third use counts: the benchmark's tracer
(``bench/tracing.py``) replaces ``<module>.<function>`` attributes, so a
module keeps a function that it never calls when ``LAYERS`` looks that
function up in it.  ``LAYERS`` is read from the file's path, without
touching ``sys.path``.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _traced():
    """The ``(module, function)`` pairs that the tracer looks up."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(modname, name.split(".")[1])
            for name, _, modules in module.LAYERS for modname in modules}


def unused_imports(source: str, filename: str = "<string>", kept=frozenset()):
    """``(line, name)`` of each name ``source`` imports and neither loads,
    lists in ``__all__`` nor finds in ``kept``."""
    imported, used = [], set(kept)
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                             for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_scanner_flags_a_name_that_is_never_used():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path as osp\n"
        "from math import pi, tau, e\n"
        "__all__ = ['tau']\n"
        "print(sys.argv, e)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (4, "pi")]
    assert unused_imports(source, kept={"os", "osp"}) == [(4, "pi")]


def test_every_import_is_used():
    traced = _traced()
    offenders = []
    for path in sorted((ROOT / "src" / "mnsurv").glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        kept = set()
        if path.parent.name == "mnsurv":
            module = "mnsurv" if path.stem == "__init__" else f"mnsurv.{path.stem}"
            kept = {name for modname, name in traced if modname == module}
        offenders += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in unused_imports(path.read_text(), str(path), kept)]
    assert offenders == []

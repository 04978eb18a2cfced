"""Spans around mnsurv's public functions, recorded from outside the package.

mnsurv's modules import names from each other directly, so a function is
wrapped in every module whose code looks it up at call time: for example
``integrate_region`` is called from ``mnsurv.survival``, and ``delta_n``
both from ``mnsurv.survival`` and from inside ``mnsurv.expansions``.  Each
span records its name, start, end, parent and one work quantity (nodes,
points, replications or bytes).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

from mnsurv.quadrature import QuadratureSpec


def _points(args, kwargs, out):
    shape = getattr(args[1], "shape", (1,))
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _nodes(args, kwargs, out):
    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    nodes = (spec if spec is not None else QuadratureSpec()).nodes
    return nodes ** args[0].d


def _replications(args, kwargs, out):
    return args[1] if len(args) > 1 else kwargs["replications"]


def _bytes(args, kwargs, out):
    return len(out)


# (span name, quantity, modules whose global the callers look up)
LAYERS = (
    ("quadrature.integrate_region", _nodes, ("mnsurv.survival",)),
    ("quadrature.legendre_rule", None, ("mnsurv.quadrature",)),
    ("expansions.log_dirichlet_integrand", _points, ("mnsurv.survival",)),
    ("expansions.log_gaussian_integrand", _points, ("mnsurv.survival",)),
    ("expansions.delta_n", None, ("mnsurv.survival", "mnsurv.expansions")),
    ("expansions.gamma_tilde", None, ("mnsurv.survival", "mnsurv.expansions")),
    ("covariance.log_mvn_density", _points, ("mnsurv.expansions",)),
    ("survival.survival_exact", None, ("mnsurv.survival",)),
    ("survival.survival_mc", _replications, ("mnsurv.survival",)),
    ("survival.compare_routes", None, ("mnsurv.survival", "mnsurv.cli")),
    ("model.build_instance", None, ("mnsurv.survival", "mnsurv.cli")),
    ("model.reduce_thresholds", None, ("mnsurv.survival",)),
    ("cli.run", None, ("mnsurv.cli",)),
    ("cli.emit_reports", _bytes, ("mnsurv.cli",)),
)


class Tracer:
    """Records spans while installed; restores the originals on ``remove``."""

    def __init__(self):
        self.spans = []       # (name, start, end, parent index or -1, quantity)
        self._stack = []
        self._patched = []

    def install(self):
        for name, quantity, modules in LAYERS:
            attr = name.split(".")[1]
            for modname in modules:
                module = importlib.import_module(modname)
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, quantity))

    def remove(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, quantity):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                q = quantity(args, kwargs, out) if quantity and out is not None else 0
                spans[index] = (name, start, end, parent, q)

        return traced


def layer_totals(spans):
    """Per span name: calls, inclusive seconds, self seconds, quantity."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "q": 0})
    for (name, start, end, _, q), covered in zip(spans, child):
        t = totals[name]
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - covered
        t["q"] += q
    return totals


def layer_metrics(spans, names):
    """Values of per-layer metrics named ``<module>.<function>.<quantity>``.

    The quantity is ``calls``, ``s`` (inclusive seconds), ``self_s`` (minus
    child spans), ``ns_per_<unit>`` (inclusive nanoseconds per unit of work)
    or the name of the span's work quantity (``nodes``, ``points``,
    ``bytes``).
    """
    totals = layer_totals(spans)
    out = {}
    for metric in names:
        span, field = metric.rsplit(".", 1)
        t = totals[span]
        if field in ("calls", "s", "self_s"):
            out[metric] = t[field]
        elif field.startswith("ns_per_"):
            out[metric] = 1e9 * t["s"] / t["q"] if t["q"] else 0.0
        else:
            out[metric] = t["q"]
    return out

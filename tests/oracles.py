"""Oracles that only the tests use, kept apart from the package.

``report_to_dict`` is the JSON object of one report, which the CLI's JSON
writer must match byte for byte under ``json.dumps(..., indent=2)``;
``bilinear_form`` is ``x^T Sigma^-1 y`` from the covariance module's closed
forms, with the same summation order as its quadratic form.
"""

from __future__ import annotations

import numpy as np

from mnsurv.covariance import _checked_points, _scalar_or_array, _scaled_dot, coordinate_sum
from mnsurv.model import ProbabilityWeights
from mnsurv.survival import RouteReport


def report_to_dict(report: RouteReport) -> dict:
    """The JSON object of one report; ``emit_reports`` writes exactly
    ``json.dumps`` of it with ``indent=2``."""
    gaussian = report.gaussian
    if gaussian is None and report.gaussian_reason is not None:
        gaussian = {"inapplicable": report.gaussian_reason}
    mc = None if report.mc is None else dict(vars(report.mc))
    return {
        "instance": {
            "n": report.n,
            "d": report.d,
            "p": list(report.p),
            "k": list(report.k),
        },
        "routes": {
            "exact": report.exact,
            "dirichlet": report.dirichlet,
            "gaussian": gaussian,
            "mc": mc,
        },
        "diagnostics": {
            "delta_n": report.delta_n,
            "gamma_tilde": report.gamma_tilde,
            "max_rel_diff": report.max_rel_diff,
        },
        "params": {"nodes": report.nodes, "tolerance": report.tolerance},
    }


def bilinear_form(weights: ProbabilityWeights, x, y) -> float | np.ndarray:
    """Bilinear form ``x^T Sigma^-1 y``; broadcasts over leading axes."""
    x = _checked_points(weights, x)
    y = _checked_points(weights, y)
    total = _scaled_dot(x, y, weights.p)
    cross = coordinate_sum(x) * coordinate_sum(y)
    cross /= weights.p_last
    total += cross
    return _scalar_or_array(total)

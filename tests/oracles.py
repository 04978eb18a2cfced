"""Oracles and shared helpers that only the tests use, kept apart from the package.

``report_to_dict`` is the JSON object of one report, which the CLI's JSON
writer must match byte for byte under ``json.dumps(..., indent=2)``;
``bilinear_form`` is ``x^T Sigma^-1 y`` from the covariance module's closed
forms, with the same summation order as its quadratic form;
``survival_truth`` is the survival probability to 40 digits, by a
recursion in mpmath that shares no code with mnsurv; ``merge_zero_thresholds``
is the merge loop ``reduce_thresholds`` had before it read its input with
``build_instance``'s checks; ``mapped_interpolation`` is the full
barycentric matrix whose distinct columns the chain rule builds;
``binomial_tail`` is the exact binomial tail.  ``mc_target`` and
``wide_rows`` are helpers more than one test file uses: the instance
Monte Carlo runs on, and the seeded rows of ``d = 8..20``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

from mnsurv.checks import random_weights
from mnsurv.covariance import _checked_points, _scalar_or_array, _scaled_dot, coordinate_sum
from mnsurv.model import ProbabilityWeights, build_instance, reduce_thresholds
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


def merge_zero_thresholds(p, k):
    """Zero thresholds merged forward, with no check beyond equal 1-d shapes."""
    p = np.asarray(p, dtype=float)
    k = np.asarray(k, dtype=np.int64)
    if p.shape != k.shape or p.ndim != 1:
        raise ValueError("p and k must be 1-d vectors of equal length")
    out_p: list[float] = []
    out_k: list[int] = []
    carry = 0.0
    for pi, ki in zip(p, k):
        if ki == 0:
            carry += pi
        else:
            out_p.append(pi + carry)
            out_k.append(int(ki))
            carry = 0.0
    return np.asarray(out_p, dtype=float), np.asarray(out_k, dtype=np.int64)


def survival_truth(n, p, k):
    """``P(S_1 >= kappa_1, ..., S_d >= kappa_d)`` for the cumulated counts
    ``S_i`` of ``Multinomial(n, (p, 1 - sum(p)))``, to 40 digits, as an
    ``mpmath.mpf``.  The weights are the exact binary values of the
    floats given, and the last cell is their exact complement.

    It is the sequential-binomial recursion: given ``S_{i-1} = s``, ``S_i -
    s`` is ``Binomial(n - s, q_i)`` with ``q_i = p_i / (1 - p_1 - ... -
    p_{i-1})``.  With the binomial pmf written in factorials, each step is
    one convolution, cut to ``t >= kappa_i``::

        f_i(t) = q^t (1-q)^(n-t) / (n-t)!  sum_s f_{i-1}(s) (n-s)! q^-s / (t-s)!

    Every term is nonnegative, so nothing cancels and the working precision
    carries over to the result.
    """
    with mpmath.workdps(45):
        fact = [mpmath.mpf(1)]
        for j in range(1, n + 1):
            fact.append(fact[-1] * j)
        inv_fact = [1 / x for x in fact]
        # f[j] = P(S_{i-1} = lo + j and every constraint before i), for j up to hi - lo
        lo, hi, f = 0, 0, [mpmath.mpf(1)]
        tail, kappa = mpmath.mpf(1), 0  # 1 - p_1 - ... - p_{i-1} and kappa_{i-1}, at step i
        for p_i, k_i in zip(p, k):
            p_i = mpmath.mpf(float(p_i))
            q, tail, kappa = p_i / tail, tail - p_i, kappa + int(k_i)
            if kappa > n:
                return mpmath.mpf(0)
            g = [v * fact[n - s] / q**s for s, v in enumerate(f, lo)]
            f = [mpmath.fdot((g[s - lo], inv_fact[t - s]) for s in range(lo, min(t, hi) + 1))
                 * q**t * (1 - q) ** (n - t) * inv_fact[n - t]
                 for t in range(kappa, n + 1)]
            lo, hi = kappa, n
        return +mpmath.fsum(f)


def mapped_interpolation(x, w) -> np.ndarray:
    """The ``(G, G^2)`` matrix ``L[c, b*G + a] = l_c(x_b x_a)`` of the
    Gauss-Legendre nodes ``x`` and weights ``w`` on ``[0, 1]``, ``l_c``
    being the Lagrange basis polynomial of node ``c``: the barycentric
    formula with the closed-form weights ``(-1)^c sqrt(x_c (1 - x_c) w_c)``
    at every product, each twin ``x_a x_b`` evaluated on its own."""
    bary = np.sqrt(x * (1.0 - x) * w)
    bary[1::2] *= -1.0
    points = np.multiply.outer(x, x).ravel()
    terms = bary[:, None] / (points - x[:, None])
    return terms / terms.sum(axis=0)


def binomial_tail(n, p_float, k):
    """Exact tail P(Bin(n, p) >= k) for the binary value of p.

    ``p = a / 2^e`` exactly, so the tail is a ratio of integers; Python's
    integer division rounds it to the nearest float.
    """
    a, den = Fraction(p_float).as_integer_ratio()
    b = den - a
    return sum(math.comb(n, x) * a**x * b ** (n - x) for x in range(k, n + 1)) / den**n


def mc_target(inst):
    """The instance Monte Carlo runs on: the reduced one, if any cell is left."""
    rp, rk = reduce_thresholds(inst.p, inst.k)
    return build_instance(inst.n, rp, rk) if rk.size else inst


def wide_rows():
    """Two rows each of d = 8, 12, 16, 20 (seed 50), every ``S_i``'s
    threshold half a standard deviation below its mean."""
    rng = np.random.default_rng(50)
    rows = []
    for d in (8, 12, 16, 20):
        for _ in range(2):
            n = int(rng.integers(100, 601))
            p = random_weights(rng, d)
            prefix = np.cumsum(p)
            kappa = np.round(n * prefix - 0.5 * np.sqrt(n * prefix * (1.0 - prefix)))
            rows.append(build_instance(n, p, np.maximum(np.diff(kappa, prepend=0), 2)))
    return rows

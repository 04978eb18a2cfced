"""Scalar kernels of the Gaussian integral representation.

This module implements the correction terms that turn the Dirichlet-type
integrand for the survival probability into a multivariate normal density
times an exact exponential tilt:

* ``stirling_lambda``: the error ``ln(m!) - [ln(2*pi*m)/2 + m*ln(m) - m]`` in
  Stirling's approximation, pinned inside ``[1/(12m+1), 1/(12m)]``;
* ``capital_lambda``, ``delta_n``: aggregated Stirling errors and the total
  log-prefactor correction;
* ``gamma_tilde`` / ``gamma_tilde_series``: entropy-minus-quadratic tilt at
  the lattice offset, with its cubic+quartic expansion;
* ``gamma_star`` / ``entropy_lhs``: the position-dependent tilt;
* ``h_value`` / ``h_grad`` / ``h_hessian``: the concave exponent of the
  Laplace-type decomposition;
* ``dirichlet_factors`` / ``gaussian_factors``: the two integrands, each
  defined once as a :class:`mnsurv.quadrature.ChainFactors`, a constant plus
  one log factor per spacing ``s_i = T_i - T_{i-1}`` of the cumulated
  coordinates and one of ``T_d``, which is the form
  :func:`mnsurv.quadrature.integrate_chain` integrates;
* ``log_dirichlet_integrand`` / ``log_gaussian_integrand``: the sums of
  those factors at points, equal pointwise on the interior of the region.

All point-evaluating functions are vectorized over leading batch axes: a
point is the last axis of length d (free coordinates) or d+1 (full simplex
coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

# log_mvn_density is not called here: the benchmark's tracer
# (bench/tracing.py) wraps it in this module.
from .covariance import coordinate_sum, log_mvn_density, quad_form
from .model import SurvivalInstance
from .quadrature import ChainFactors

__all__ = [
    "dirichlet_factors",
    "gaussian_factors",
    "ExpansionContext",
    "expansion_context",
    "stirling_lambda",
    "log_factorial",
    "capital_lambda",
    "gamma_tilde",
    "gamma_tilde_scaled",
    "gamma_tilde_series",
    "gamma_tilde_series_scaled",
    "quadratic_cancellation_residual",
    "delta_n",
    "gamma_star",
    "entropy_lhs",
    "h_value",
    "h_grad",
    "h_hessian",
    "log_dirichlet_integrand",
    "log_gaussian_integrand",
]

# ln(m!) for m = 0..20 by exact summation of ln(j).
_LOG_FACTORIAL_TABLE = tuple(
    math.fsum(math.log(j) for j in range(2, m + 1)) for m in range(21)
)

# lambda_1..lambda_20, each the double nearest to a 50-digit mpmath value of
# ln(m!) - ln(2 pi m)/2 - m ln(m) + m.  Forming that difference in double
# precision cancels and loses up to three digits.
_LAMBDA_TABLE = (
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
    0.0052076559196096404,
    0.004901395948434738,
    0.004629153749334028,
    0.004385560249232324,
    0.004166319691996922,
)

# Coefficients of the asymptotic series lambda_m = sum B_{2n} / (2n(2n-1) m^{2n-1});
# five terms keep the absolute error below 1e-17 for every m > 20.
_LAMBDA_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def log_factorial(m: int) -> float:
    """``ln(m!)``: exact summation up to m = 20, log-gamma beyond."""
    if m < 0 or int(m) != m:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    m = int(m)
    if m <= 20:
        return _LOG_FACTORIAL_TABLE[m]
    return math.lgamma(m + 1.0)


def stirling_lambda(m: int) -> float:
    """Error term of Stirling's approximation for ``ln(m!)``, ``m >= 1``.

    Satisfies ``1/(12m+1) <= lambda_m <= 1/(12m)``.  Up to m = 20 the value
    is read from a table computed in high precision; beyond, it is taken
    from the asymptotic series directly, because forming it as a difference
    of log-factorial terms loses digits at every m and all of them long
    before m = 1e6.
    """
    if m < 1 or int(m) != m:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    m = int(m)
    if m <= 20:
        return _LAMBDA_TABLE[m - 1]
    r = 1.0 / (m * m)
    acc = _LAMBDA_SERIES[-1]
    for c in _LAMBDA_SERIES[-2::-1]:
        acc = c + r * acc
    return acc / m


@dataclass(frozen=True, eq=False)
class ExpansionContext:
    """:func:`capital_lambda`, :func:`gamma_tilde` and :func:`delta_n` of
    ``instance``, computed once for a caller that reports them and also
    builds the instance's :func:`gaussian_factors`."""

    instance: SurvivalInstance
    capital_lambda: float
    gamma_tilde: float
    delta_n: float


def expansion_context(instance: SurvivalInstance) -> ExpansionContext:
    ctx = ExpansionContext(
        instance=instance,
        capital_lambda=capital_lambda(instance),
        gamma_tilde=gamma_tilde(instance),
        delta_n=math.nan,
    )
    # delta_n of a context reuses its capital_lambda and gamma_tilde
    return replace(ctx, delta_n=delta_n(ctx))


def capital_lambda(instance: SurvivalInstance) -> float:
    """Aggregated Stirling error ``lambda_N - sum_i lambda_{J_i}``.

    The subtracted terms are the Stirling errors of the gap factorials
    ``J_i!``, which is what the factorial ratio ``N!/prod(J_i!)`` produces.
    """
    _require_gaussian(instance)
    return stirling_lambda(instance.N) - math.fsum(
        stirling_lambda(int(j)) for j in instance.J
    )


def gamma_tilde(instance: SurvivalInstance) -> float:
    """Entropy-minus-quadratic tilt at the lattice offset.

    ``sum_i p_i (1+eps_i) ln(1+eps_i) - quad_form(eps_tilde)/2`` over all
    d+1 cells, the quadratic form taken over the d free coordinates.
    """
    return gamma_tilde_scaled(instance, 1.0)


def gamma_tilde_scaled(instance: SurvivalInstance, t: float) -> float:
    """Tilt evaluated at the scaled offset ``t * eps`` (diagnostic hook).

    Used to measure the convergence rate of :func:`gamma_tilde_series`
    without constructing instances of prescribed offset.
    """
    _require_gaussian(instance)
    eps = instance.eps
    te = t * eps
    entropy = float(np.sum(instance.weights.p_full * (1.0 + te) * np.log1p(te)))
    d = instance.d
    quad = quad_form(instance.weights, t * instance.eps_tilde[:d])
    return entropy - 0.5 * quad


def gamma_tilde_series(instance: SurvivalInstance) -> float:
    """Truncated cubic+quartic expansion of :func:`gamma_tilde`.

    The cubic and quartic sums over the d free coordinates collapse, via
    ``sum_{i<=d} eps_tilde_i = -eps_tilde_{d+1}``, to single sums over all
    d+1 cells with weights ``1/p_i^2`` and ``1/p_i^3``.  No remainder term
    is added; the truncation error is of fifth order in the offset.
    """
    return gamma_tilde_series_scaled(instance, 1.0)


def gamma_tilde_series_scaled(instance: SurvivalInstance, t: float) -> float:
    _require_gaussian(instance)
    e = t * instance.eps_tilde
    p = instance.weights.p_full
    cubic = float(np.sum(e**3 / p**2))
    quartic = float(np.sum(e**4 / p**3))
    return -cubic / 6.0 + quartic / 12.0


def quadratic_cancellation_residual(instance: SurvivalInstance) -> float:
    """Literal double sum of the inverse-kernel entries minus the grouped form.

    Evaluates ``(1/2) sum_{i,j<=d} et_i et_j (1(i=j)/p_i + 1/p_last)`` by an
    explicit double loop and subtracts ``quad_form(et)/2``; the result is an
    algebraic zero and should vanish to roundoff.
    """
    _require_n_positive(instance)
    d = instance.d
    e = instance.eps_tilde[:d]
    p = instance.weights.p
    inv_last = 1.0 / instance.weights.p_last
    terms = []
    for a in range(d):
        for b in range(d):
            w = inv_last + (1.0 / p[a] if a == b else 0.0)
            terms.append(e[a] * e[b] * w)
    double_sum = math.fsum(terms)
    return 0.5 * double_sum - 0.5 * quad_form(instance.weights, e)


def delta_n(instance: SurvivalInstance | ExpansionContext) -> float:
    """Total log-prefactor correction of the Gaussian representation.

    ``ln((N+d)!/(N! N^d)) + capital_lambda - sum_i ln(1+eps_i)/2 -
    N*gamma_tilde``; the factorial ratio is accumulated as
    ``sum_{i<=d} ln(1 + i/N)`` so no large factorials are ever formed.  An
    :class:`ExpansionContext` may stand in for the instance; its stored
    ``capital_lambda`` and ``gamma_tilde`` are then used, not recomputed.
    """
    if isinstance(instance, ExpansionContext):
        cap, tilt = instance.capital_lambda, instance.gamma_tilde
        instance = instance.instance
    else:
        _require_gaussian(instance)
        cap, tilt = capital_lambda(instance), gamma_tilde(instance)
    N = instance.N
    ratio = math.fsum(math.log1p(i / N) for i in range(1, instance.d + 1))
    half_logs = 0.5 * float(np.sum(np.log1p(instance.eps)))
    return ratio + cap - half_logs - N * tilt


def gamma_star(instance: SurvivalInstance, s) -> float | np.ndarray:
    """Position-dependent tilt; vanishes at ``s = p``.

    ``sum_{i<=d+1} (J_i/N) ln(s_i/p_i)`` minus the affine-quadratic part
    ``et^T Sigma^-1 (s-p) - (s-p)^T Sigma^-1 (s-p)/2`` over the free
    coordinates.  ``s`` must be strictly inside the simplex (all d+1
    coordinates positive); batch evaluation over the leading axes.  It is
    evaluated as the sum of the tilt parts of the Gaussian factors (see
    :func:`gaussian_factors`), divided by ``N``.
    """
    _require_n_positive(instance)
    tilts = [cell.tilt for cell in _gaussian_cells(instance)]
    free, total = _cumulated(instance, s, require_interior=True)
    return _factor_sum(0.0, tilts[:-1], _at_end(tilts[-1]), free, total) / instance.N


def entropy_lhs(instance: SurvivalInstance, s) -> float | np.ndarray:
    """The weighted log-ratio sum ``sum_{i<=d+1} (J_i/N) ln(s_i/p_i)``."""
    _require_n_positive(instance)
    full = _simplex_point(instance, s, require_interior=True)
    p = instance.weights.p_full
    out = np.zeros(full.shape[:-1])
    for i, c in enumerate((instance.J / instance.N).tolist()):
        if c:  # a cell with J_i = 0 adds exactly 0
            term = np.log(full[..., i] / p[i])
            term *= c
            out += term
    return out if out.ndim else float(out)


def h_value(instance: SurvivalInstance, s) -> float | np.ndarray:
    """Concave exponent ``H(s) = sum_{i<=d+1} (J_i/N) ln(s_i)``: the
    Dirichlet factors without their constant, divided by ``N``."""
    _require_n_positive(instance)
    steps, end = _dirichlet_cells(instance)
    free, total = _cumulated(instance, s, require_interior=True)
    return _factor_sum(0.0, steps, end, free, total) / instance.N


def h_grad(instance: SurvivalInstance, s) -> np.ndarray:
    """Gradient of ``H`` in the d free coordinates at a single point.

    Component i is ``(J_i/N)/s_i - (J_{d+1}/N)/s_{d+1}``; it vanishes
    identically at ``s = J/N``.
    """
    _require_n_positive(instance)
    full = _single_point(instance, s, "h_grad")
    jn = instance.J / instance.N
    d = instance.d
    return jn[:d] / full[:d] - jn[d] / full[d]


def h_hessian(instance: SurvivalInstance, s) -> np.ndarray:
    """Hessian of ``H`` in the free coordinates: negative definite everywhere."""
    _require_n_positive(instance)
    full = _single_point(instance, s, "h_hessian")
    jn = instance.J / instance.N
    d = instance.d
    hess = np.full((d, d), -jn[d] / full[d] ** 2)
    hess[np.diag_indices(d)] -= jn[:d] / full[:d] ** 2
    return hess


_LOG_2PI = math.log(2.0 * math.pi)


def dirichlet_factors(instance: SurvivalInstance) -> ChainFactors:
    """The Dirichlet-type integrand as factors.

    ``steps[i](u) = J_i ln u`` for ``i <= d``, ``end(T) = J_{d+1} ln(1 - T)``
    and the constant ``ln((N+d)!) - sum_i ln(J_i!)`` over all d+1 cells.  A
    factor with ``J_i = 0`` is exactly 0, even where its argument is 0.
    """
    steps, end = _dirichlet_cells(instance)
    J = instance.J.tolist()
    constant = _log_multinomial_constant(instance.N + instance.d, tuple(J))
    return ChainFactors(constant, steps, end, tuple(J[: instance.d]))


def _dirichlet_cells(instance):
    cells = [_power(j) for j in instance.J.tolist()]
    return tuple(cells[:-1]), _at_end(cells[-1])


def _power(j):
    if j == 0:
        return lambda u, log_u: np.zeros(np.shape(u))
    return lambda u, log_u: j * log_u


def _at_end(cell):
    """The last cell's factor, whose mass is ``1 - T_d``, as a function of ``T_d``."""
    return lambda t: cell(t, np.log(1.0 - t))


# Up to this total the Dirichlet constant is the log of an exact integer.
_EXACT_MULTINOMIAL_MAX = 10**4


@lru_cache(maxsize=64)
def _log_multinomial_constant(total, J):
    """``ln(total!) - sum_i ln(J_i!)``; cached, so repeated integrals of one
    instance compute it once.

    Up to ``_EXACT_MULTINOMIAL_MAX`` it is the log of the exact integer
    ``total! / prod_i J_i!``, which is off by an ulp or two of the result;
    the difference of rounded log-factorials beyond is off by ulps of
    ``ln(total!)``, about 1e-12 at total = 1000.
    """
    if total <= _EXACT_MULTINOMIAL_MAX:
        return math.log(math.factorial(total) // math.prod(map(math.factorial, J)))
    return log_factorial(total) - math.fsum(log_factorial(j) for j in J)


def gaussian_factors(instance: SurvivalInstance | ExpansionContext) -> ChainFactors:
    """The Gaussian-representation integrand as factors.

    ``delta_n + (d/2) ln N + N gamma_star(s) + ln phi(sqrt(N) (p - s + et))``
    splits by cell: ``Sigma^-1 = diag(1/p) + 11^T/p_{d+1}``, and the free
    ``x_i = s_i - p_i`` sum to ``X = T_d - P_d``.  So both ``N gamma_star``
    and the normal log-density are a sum of terms in one ``s_i`` each plus
    terms in ``T_d`` alone (see :class:`_GaussianCell`), and the constant is
    ``delta_n + (d/2) ln N - (d ln(2 pi) + ln det Sigma)/2``.  Requires
    ``J_i >= 1`` for every cell.  An :class:`ExpansionContext` may stand in
    for the instance, so a caller that holds one does not recompute its
    ``delta_n``.
    """
    ctx = instance if isinstance(instance, ExpansionContext) else expansion_context(instance)
    inst = ctx.instance
    d = inst.d
    cells = _gaussian_cells(inst)
    constant = (
        ctx.delta_n + 0.5 * d * math.log(inst.N) - 0.5 * (d * _LOG_2PI + inst.weights.log_det)
    )
    return ChainFactors(constant, tuple(cells[:-1]), _at_end(cells[-1]), tuple(inst.J[:d].tolist()))


def _gaussian_cells(instance):
    """One cell per ``s_i``, ``i <= d``, and a last one in ``T_d`` (centre
    ``P_d``, offset ``E = sum_{i<=d} et_i``, whose normal-argument
    coordinates sum to ``sqrt(N) (E - X)``)."""
    N, d = instance.N, instance.d
    J = instance.J.tolist()
    p = instance.weights.p_full.tolist()
    et = instance.eps_tilde.tolist()
    cells = [_GaussianCell(N, J[i], p[i], p[i], et[i]) for i in range(d)]
    total = float(instance.weights.prefix[-1])
    cells.append(_GaussianCell(N, J[d], p[d], total, math.fsum(et[:d])))
    return cells


class _GaussianCell:
    """The terms of one cell of the Gaussian integrand, at ``v`` with ``x = v
    - centre`` and the cell's mass ``m`` (``s_i``, or ``1 - T_d``).

    Tilt (its part of ``N gamma_star``): ``J ln(m/p) - N (et x/p - x^2/(2p))``.
    Normal log-density: ``-N (x - et)^2 / (2p)``.
    """

    def __init__(self, N, j, p, centre, et):
        self.j, self.log_p, self.centre, self.et = j, math.log(p), centre, et
        self.slope = N * et / p
        self.curvature = 0.5 * N / p

    def tilt(self, v, log_mass):
        out = log_mass - self.log_p
        out *= self.j
        x = v - self.centre
        quad = x * self.curvature
        quad -= self.slope
        quad *= x
        out += quad
        return out

    def __call__(self, v, log_mass):
        out = self.tilt(v, log_mass)
        z = v - self.centre
        z -= self.et
        z *= z
        z *= self.curvature
        out -= z
        return out


def log_dirichlet_integrand(instance: SurvivalInstance, s) -> float | np.ndarray:
    """Log of the Dirichlet-type integrand for the survival probability.

    ``ln((N+d)!) - sum_i ln(J_i!) + sum_i J_i ln(s_i)`` over all d+1 cells,
    where cells with ``J_i = 0`` contribute exactly 0 whatever ``s_i``:
    the sum of :func:`dirichlet_factors`.  Returns ``-inf`` when some
    ``s_i = 0`` with ``J_i >= 1``.  Batch evaluation over leading axes;
    ``s`` has d free or d+1 full coordinates.
    """
    f = dirichlet_factors(instance)
    free, total = _cumulated(instance, s, require_interior=False)
    return _factor_sum(f.constant, f.steps, f.end, free, total)


def log_gaussian_integrand(instance: SurvivalInstance, s) -> float | np.ndarray:
    """Log of the Gaussian-representation integrand.

    ``delta_n + (d/2) ln N + N*gamma_star(s) + ln phi(sqrt(N) (p - s + et))``
    with ``phi`` the centered normal density for the multinomial covariance
    kernel, evaluated as the sum of :func:`gaussian_factors`.  Pointwise
    equal to :func:`log_dirichlet_integrand` on the interior; requires
    ``J_i >= 1`` for every cell.
    """
    f = gaussian_factors(instance)
    free, total = _cumulated(instance, s, require_interior=True)
    return _factor_sum(f.constant, f.steps, f.end, free, total)


def _cumulated(instance, s, require_interior):
    """The free coordinates of ``s``, shape (..., d), and ``T_d``.

    Accepts the d free coordinates (``T_d`` is their sum) or all d+1
    (``T_d = 1 - s_{d+1}``).
    """
    d = instance.d
    s = _points(s, d)
    if s.shape[-1] == d:
        total = coordinate_sum(s)
    else:
        total = 1.0 - s[..., d]
        s = s[..., :d]
    if require_interior and not ((s > 0.0).all() and (total < 1.0).all()):
        raise ValueError("point must lie strictly inside the simplex")
    return s, total


def _factor_sum(constant, steps, end, s, total):
    """``constant + sum_i steps[i](s_i, ln s_i) + end(T_d)``, cell by cell in
    order."""
    with np.errstate(divide="ignore"):
        out = steps[0](s[..., 0], np.log(s[..., 0]))
        for i in range(1, len(steps)):
            out += steps[i](s[..., i], np.log(s[..., i]))
        out += end(total)
    out += constant
    return out if np.ndim(out) else float(out)


def _simplex_point(instance, s, require_interior):
    """The d+1 full simplex coordinates of ``s``, shape (..., d+1).

    Accepts the d free coordinates (the last one is completed to unit sum)
    or all d+1 coordinates.
    """
    d = instance.d
    full = _points(s, d)
    if full.shape[-1] == d:
        last = coordinate_sum(full)
        np.subtract(1.0, last, out=last)
        full = np.concatenate([full, last[..., None]], axis=-1)
    if require_interior and not (full > 0.0).all():
        raise ValueError("point must lie strictly inside the simplex")
    return full


def _points(s, d):
    s = np.asarray(s, dtype=float)
    if s.ndim == 0 or s.shape[-1] not in (d, d + 1):
        raise ValueError(f"a point must have {d} or {d + 1} coordinates, got shape {s.shape}")
    return s


def _single_point(instance, s, name):
    full = _simplex_point(instance, s, require_interior=True)
    if full.ndim != 1:
        raise ValueError(f"{name} expects a single point")
    return full


def _require_n_positive(instance):
    if instance.N < 1:
        raise ValueError("operation requires N = n - d >= 1")


def _require_gaussian(instance):
    _require_n_positive(instance)
    if not np.all(instance.J >= 1):
        raise ValueError(
            "Gaussian-route expansions require J_i >= 1 for every cell "
            f"(gaps j = {instance.j.tolist()})"
        )

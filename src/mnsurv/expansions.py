"""Scalar kernels of the Gaussian integral representation.

This module implements the correction terms that turn the Dirichlet-type
integrand for the survival probability into a multivariate normal density
times an exact exponential tilt:

* ``stirling_lambda``: the error ``ln(m!) - [ln(2*pi*m)/2 + m*ln(m) - m]`` in
  Stirling's approximation, pinned inside ``[1/(12m+1), 1/(12m)]``;
* ``capital_lambda``, ``delta_n``: aggregated Stirling errors and the total
  log-prefactor correction, which ``expansion_context`` computes
  (``expansion_contexts`` for a group of same-d instances at once);
* ``gamma_tilde`` / ``gamma_tilde_series``: entropy-minus-quadratic tilt at
  the lattice offset, with its cubic+quartic expansion;
* ``gamma_star`` / ``entropy_lhs``: the position-dependent tilt;
* ``h_value`` / ``h_grad`` / ``h_hessian``: the concave exponent of the
  Laplace-type decomposition;
* ``dirichlet_factors`` / ``gaussian_factors``: the two integrands, each
  defined once as a :class:`mnsurv.quadrature.ChainFactors`, a constant plus
  one log factor per cell: the spacings ``s_i = T_i - T_{i-1}`` of the
  cumulated coordinates and the last cell's ``1 - T_d``, which is the form
  :func:`mnsurv.quadrature.integrate_chain` integrates;
* ``log_dirichlet_integrand`` / ``log_gaussian_integrand``: the sums of
  those factors at points, equal pointwise on the interior of the region.

A point is the last axis of an array: the d free coordinates ``s_1..s_d``,
whose sum is ``T_d`` and the last cell's mass ``1 - T_d``, or all d+1
coordinates, the last one that mass and ``T_d = 1 - s_{d+1}``.  The point
functions take a batch over the leading axes, but ``h_grad`` and
``h_hessian`` a single point.  All of them but ``log_dirichlet_integrand``
require an interior point: every free coordinate ``> 0`` and ``T_d < 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# log_mvn_density is not called here: bench/tracing.py's LAYERS wraps it here.
from .covariance import _quad_form, coordinate_sum, log_mvn_density, quad_form
from .model import SurvivalInstance
from .quadrature import ChainFactors

__all__ = [
    "dirichlet_factors",
    "gaussian_factors",
    "ExpansionContext",
    "expansion_context",
    "expansion_contexts",
    "stirling_lambda",
    "log_factorial",
    "capital_lambda",
    "gamma_tilde",
    "gamma_tilde_series",
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
    """:func:`gamma_tilde` and :func:`delta_n` of ``instance``, computed once
    for a caller that reports them and also builds the instance's
    :func:`gaussian_factors`."""

    instance: SurvivalInstance
    gamma_tilde: float
    delta_n: float


def expansion_context(instance: SurvivalInstance) -> ExpansionContext:
    """The context of a Gaussian-ready instance (every ``J_i >= 1``).

    ``delta_n`` is the total log-prefactor correction of the Gaussian
    representation, ``ln((N+d)!/(N! N^d)) + capital_lambda - sum_i
    ln(1+eps_i)/2 - N*gamma_tilde``; the factorial ratio is accumulated as
    ``sum_{i<=d} ln(1 + i/N)`` so no large factorials are ever formed.  It
    is :func:`expansion_contexts` of the one instance, with its tilt from
    :func:`gamma_tilde`.
    """
    return _contexts([instance], instance.eps[None], [gamma_tilde(instance)])[0]


def expansion_contexts(instances) -> list:
    """:func:`expansion_context` of each of same-``d`` Gaussian-ready
    instances, as a list, in one pass over ``(R, d+1)`` arrays; each
    context is bit for bit that of its instance alone; ``[]`` for none."""
    if not instances:
        return []
    p_full = np.array([instance.weights.p_full for instance in instances])
    eps = np.array([instance.eps for instance in instances])
    eps_tilde = np.array([instance.eps_tilde for instance in instances])
    return _contexts(instances, eps, _tilts(p_full, eps, eps_tilde, 1.0).tolist())


def _contexts(instances, eps, tilts):
    """The contexts of same-``d`` instances, whose ``eps`` are the rows of
    ``eps`` and whose :func:`gamma_tilde` are ``tilts``.  The factorial ratio
    and ``capital_lambda`` are sums of a few terms per row, in plain Python."""
    half_logs = (0.5 * np.sum(np.log1p(eps), axis=1)).tolist()
    contexts = []
    for instance, tilt, half in zip(instances, tilts, half_logs):
        N = instance.N
        ratio = math.fsum(math.log1p(i / N) for i in range(1, instance.d + 1))
        delta = ratio + capital_lambda(instance) - half - N * tilt
        contexts.append(ExpansionContext(instance, tilt, delta))
    return contexts


def capital_lambda(instance: SurvivalInstance) -> float:
    """Aggregated Stirling error ``lambda_N - sum_i lambda_{J_i}``.

    The subtracted terms are the Stirling errors of the gap factorials
    ``J_i!``, which is what the factorial ratio ``N!/prod(J_i!)`` produces.
    """
    _require_gaussian(instance)
    return stirling_lambda(instance.N) - math.fsum(
        stirling_lambda(int(j)) for j in instance.J
    )


def gamma_tilde(instance: SurvivalInstance, t: float = 1.0) -> float:
    """Entropy-minus-quadratic tilt at the lattice offset.

    ``sum_i p_i (1+eps_i) ln(1+eps_i) - quad_form(eps_tilde)/2`` over all
    d+1 cells, the quadratic form taken over the d free coordinates.  A
    ``t`` other than 1 evaluates it at the scaled offset ``t * eps``, which
    measures the convergence rate of :func:`gamma_tilde_series` without
    constructing instances of prescribed offset.
    """
    _require_gaussian(instance)
    return float(_tilts(instance.weights.p_full, instance.eps, instance.eps_tilde, t))


def _tilts(p_full, eps, eps_tilde, t):
    """:func:`gamma_tilde` at ``t`` from the cell weights, ``eps`` and
    ``eps_tilde`` of one instance, shape ``(d+1,)``, or of one instance a
    row, ``(R, d+1)``.  The quadratic form sums its coordinates left to
    right with each row's own weights, and a sum along contiguous rows
    takes each row in the order of its own 1-d ``np.sum``, so every row
    keeps the bits of its instance alone."""
    d = p_full.shape[-1] - 1
    te = t * eps
    entropy = np.sum(p_full * (1.0 + te) * np.log1p(te), axis=-1)
    quad = _quad_form(p_full[..., :d], p_full[..., d], t * eps_tilde[..., :d])
    return entropy - 0.5 * quad


def gamma_tilde_series(instance: SurvivalInstance, t: float = 1.0) -> float:
    """Truncated cubic+quartic expansion of :func:`gamma_tilde`, at the same ``t``.

    The cubic and quartic sums over the d free coordinates collapse, via
    ``sum_{i<=d} eps_tilde_i = -eps_tilde_{d+1}``, to single sums over all
    d+1 cells with weights ``1/p_i^2`` and ``1/p_i^3``.  No remainder term
    is added; the truncation error is of fifth order in the offset.
    """
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


def delta_n(instance: SurvivalInstance) -> float:
    """Total log-prefactor correction of the Gaussian representation, the
    ``delta_n`` of :func:`expansion_context`."""
    return expansion_context(instance).delta_n


def gamma_star(instance: SurvivalInstance, s) -> float | np.ndarray:
    """Position-dependent tilt; vanishes at ``s = p``.

    ``sum_{i<=d+1} (J_i/N) ln(s_i/p_i)`` minus the affine-quadratic part
    ``et^T Sigma^-1 (s-p) - (s-p)^T Sigma^-1 (s-p)/2`` over the free
    coordinates.  It is evaluated as the sum of the tilt parts of the
    Gaussian factors (see :func:`gaussian_factors`), divided by ``N``.
    """
    _require_n_positive(instance)
    tilts = [cell.tilt for cell in _gaussian_cells([instance])]
    free, total, _ = _point(instance, s)
    return _factor_sum(0.0, tilts, free, total) / instance.N


def entropy_lhs(instance: SurvivalInstance, s) -> float | np.ndarray:
    """The weighted log-ratio sum ``sum_{i<=d+1} (J_i/N) ln(s_i/p_i)``."""
    _require_n_positive(instance)
    free, _, last = _point(instance, s)
    p = instance.weights.p_full
    out = np.zeros(np.shape(last))
    for i, c in enumerate((instance.J / instance.N).tolist()):
        if c:  # a cell with J_i = 0 adds exactly 0
            term = np.log((free[..., i] if i < instance.d else last) / p[i])
            term *= c
            out += term
    return out if out.ndim else float(out)


def h_value(instance: SurvivalInstance, s) -> float | np.ndarray:
    """Concave exponent ``H(s) = sum_{i<=d+1} (J_i/N) ln(s_i)``: the
    Dirichlet factors without their constant, divided by ``N``."""
    _require_n_positive(instance)
    cells = _dirichlet_cells(instance.J[None].astype(float))
    free, total, _ = _point(instance, s)
    return _factor_sum(0.0, cells, free, total) / instance.N


def h_grad(instance: SurvivalInstance, s) -> np.ndarray:
    """Gradient of ``H`` in the d free coordinates at a single point.

    Component i is ``(J_i/N)/s_i - (J_{d+1}/N)/s_{d+1}``; it vanishes
    identically at ``s = J/N``.
    """
    _require_n_positive(instance)
    free, _, last = _point(instance, s, single="h_grad")
    jn = instance.J / instance.N
    return jn[:-1] / free - jn[-1] / last


def h_hessian(instance: SurvivalInstance, s) -> np.ndarray:
    """Hessian of ``H`` in the free coordinates: negative definite everywhere."""
    _require_n_positive(instance)
    free, _, last = _point(instance, s, single="h_hessian")
    jn = instance.J / instance.N
    d = instance.d
    hess = np.full((d, d), -jn[d] / last ** 2)
    hess[np.diag_indices(d)] -= jn[:d] / free ** 2
    return hess


def dirichlet_factors(instances) -> ChainFactors:
    """The Dirichlet-type integrands of same-``d`` instances as factors, one
    row per instance.

    The cell factors ``J_i ln s_i``, the last one ``J_{d+1} ln(1 - T_d)``,
    and the constant ``ln((N+d)!) - sum_i ln(J_i!)`` over all d+1 cells.  A
    factor with ``J_i = 0`` is 0 wherever its mass is positive, as every
    mass on the chain grid is.
    """
    if not instances:
        raise ValueError("a batch needs at least one instance")
    gaps = [instance.J.tolist() for instance in instances]
    J = np.array(gaps, dtype=float)
    constant = np.array([
        _log_multinomial_constant(instance.N + instance.d, j)
        for instance, j in zip(instances, gaps)
    ])
    return ChainFactors(constant, _dirichlet_cells(J), J[:, :-1])


def _dirichlet_cells(J):
    """The d+1 cell factors of the ``(B, d+1)`` gaps ``J``."""
    return tuple(_PowerCell(j) for j in J.T[:, :, None, None])


class _PowerCell(NamedTuple):
    """``J ln(mass)``, with the ``(B, 1, 1)`` powers ``J``.  A mass of 0
    gives ``-inf``, or ``nan`` where ``J = 0``; the chain grid has none, and
    :func:`log_dirichlet_integrand` gives a ``J = 0`` cell a mass of 1."""

    j: np.ndarray

    def __call__(self, u, log_u):
        return log_u * self.j

    def rows(self, index):
        return _PowerCell(self.j[index])


# Up to this total the Dirichlet constant is the log of an exact integer.
_EXACT_MULTINOMIAL_MAX = 10**4


def _log_multinomial_constant(total, J):
    """``ln(total!) - sum_i ln(J_i!)``.

    Up to ``_EXACT_MULTINOMIAL_MAX`` it is the log of the exact integer
    ``total! / prod_i J_i!``, which is off by an ulp or two of the result;
    the difference of rounded log-factorials beyond is off by ulps of
    ``ln(total!)``, about 1e-12 at total = 1000.
    """
    if total <= _EXACT_MULTINOMIAL_MAX:
        return math.log(math.factorial(total) // math.prod(map(math.factorial, J)))
    return log_factorial(total) - math.fsum(log_factorial(j) for j in J)


def gaussian_factors(contexts) -> ChainFactors:
    """The Gaussian-representation integrands of same-``d`` instances as
    factors, one row per :class:`ExpansionContext`.

    ``delta_n + (d/2) ln N + N gamma_star(s) + ln phi(sqrt(N) (p - s + et))``
    splits by cell: ``Sigma^-1 = diag(1/p) + 11^T/p_{d+1}``, and the free
    ``x_i = s_i - p_i`` sum to ``X = T_d - P_d``.  So both ``N gamma_star``
    and the normal log-density are a sum of terms in one cell each, the
    last in ``T_d`` (see :class:`_GaussianCell`), and the constant is
    ``delta_n + (d/2) ln N - (d ln(2 pi) + ln det Sigma)/2``, with the
    context's ``delta_n``.  Requires ``J_i >= 1`` for every cell.
    """
    if not contexts:
        raise ValueError("a batch needs at least one instance")
    instances = [ctx.instance for ctx in contexts]
    cells = _gaussian_cells(instances)
    constant = np.array([
        ctx.delta_n + 0.5 * inst.d * math.log(inst.N)
        - inst.weights.log_normaliser
        for ctx, inst in zip(contexts, instances)
    ])
    powers = np.concatenate([cell.j[:, :, 0] for cell in cells[:-1]], axis=1)
    return ChainFactors(constant, tuple(cells), powers)


def _gaussian_cells(instances):
    """One cell per ``s_i``, ``i <= d``, and a last one in ``T_d`` (centre
    ``P_d``, offset ``E = sum_{i<=d} et_i``, whose normal-argument
    coordinates sum to ``sqrt(N) (E - X)``), with a row per instance."""
    rows = []
    for inst in instances:
        N, d = inst.N, inst.d
        J = inst.J.tolist()
        p = inst.weights.p_full.tolist()
        centre = p[:d] + [float(inst.weights.prefix[-1])]
        et = inst.eps_tilde.tolist()
        et[d] = math.fsum(et[:d])
        rows.append([
            [J[i], math.log(p[i]), centre[i], et[i], N * et[i] / p[i], 0.5 * N / p[i]]
            for i in range(d + 1)
        ])
    # (d+1, 6, B, 1, 1): the six parameter columns of each cell
    table = np.array(rows, dtype=float).transpose(1, 2, 0)[..., None, None]
    return [_GaussianCell(*columns) for columns in table]


class _GaussianCell(NamedTuple):
    """The terms of one cell of the Gaussian integrand, at ``v`` with ``x = v
    - centre`` and the cell's mass ``m`` (``s_i``, or ``1 - T_d``).

    Tilt (its part of ``N gamma_star``): ``J ln(m/p) - N (et x/p - x^2/(2p))``.
    Normal log-density: ``-N (x - et)^2 / (2p)``, with ``slope = N et / p``
    and ``curvature = N / (2p)``.  Each parameter is a ``(B, 1, 1)`` column
    with an entry per row.
    """

    j: np.ndarray
    log_p: np.ndarray
    centre: np.ndarray
    et: np.ndarray
    slope: np.ndarray
    curvature: np.ndarray

    def rows(self, index):
        return _GaussianCell(*(column[index] for column in self))

    def tilt(self, v, log_mass):
        return self._tilt(v - self.centre, log_mass)

    def __call__(self, v, log_mass):
        x = v - self.centre
        out = self._tilt(x, log_mass)
        x -= self.et
        x *= x
        x *= self.curvature
        out -= x
        return out

    def _tilt(self, x, log_mass):
        out = log_mass - self.log_p
        out *= self.j
        quad = x * self.curvature
        quad -= self.slope
        quad *= x
        out += quad
        return out


def log_dirichlet_integrand(instance: SurvivalInstance, s) -> float | np.ndarray:
    """Log of the Dirichlet-type integrand for the survival probability.

    ``ln((N+d)!) - sum_i ln(J_i!) + sum_i J_i ln(s_i)`` over all d+1 cells,
    the sum of :func:`dirichlet_factors`.  Cells with ``J_i = 0`` are given
    a mass of 1 first, so they contribute exactly 0 whatever ``s_i``.
    Returns ``-inf`` when some ``s_i = 0`` with ``J_i >= 1``.  The last
    cell's factor is taken at ``1 - T_d``, so a full point whose last mass
    is at most ``2**-54`` (about 5.6e-17) gives ``-inf`` there, and one below
    about 1.1e-16 has that mass rounded to 0 or ``2**-53``.
    """
    f = dirichlet_factors([instance])
    free, total, _ = _point(instance, s, interior=False)
    empty = instance.J == 0
    free = np.where(empty[:-1], 1.0, free)
    total = np.where(empty[-1], 0.0, total)  # 1 - T_d is the last cell's mass
    return _factor_sum(f.constant, f.steps, free, total)


def log_gaussian_integrand(instance: SurvivalInstance, s) -> float | np.ndarray:
    """Log of the Gaussian-representation integrand.

    ``delta_n + (d/2) ln N + N*gamma_star(s) + ln phi(sqrt(N) (p - s + et))``
    with ``phi`` the centered normal density for the multinomial covariance
    kernel, evaluated as the sum of :func:`gaussian_factors`.  Pointwise
    equal to :func:`log_dirichlet_integrand` on the interior; requires
    ``J_i >= 1`` for every cell.
    """
    f = gaussian_factors([expansion_context(instance)])
    free, total, _ = _point(instance, s)
    return _factor_sum(f.constant, f.steps, free, total)


def _point(instance, s, interior=True, single=None):
    """The free coordinates of the points ``s``, shape (..., d), their
    ``T_d`` and the last cell's mass, by the rule of the module docstring.

    Refuses a point off the interior unless ``interior`` is false, and,
    where the function named ``single`` takes one point, a batch.
    """
    d = instance.d
    s = np.asarray(s, dtype=float)
    if s.ndim == 0 or s.shape[-1] not in (d, d + 1):
        raise ValueError(f"a point must have {d} or {d + 1} coordinates, got shape {s.shape}")
    if s.shape[-1] == d:
        total = coordinate_sum(s)
        last = 1.0 - total
    else:
        last = s[..., d]
        total = 1.0 - last
        s = s[..., :d]
    if interior and not ((s > 0.0).all() and (total < 1.0).all()):
        raise ValueError("point must lie strictly inside the simplex")
    if single and s.ndim != 1:
        raise ValueError(f"{single} expects a single point")
    return s, total, last


def _factor_sum(constant, cells, s, total):
    """``constant + sum_{i < d} cells[i](s_{i+1}, ln s_{i+1}) + cells[d](T_d,
    ln(1 - T_d))``, cell by cell in order, for the d+1 cell factors of one
    row.

    The points are given two leading axes of length 1, the row and block
    axes of the factors' arrays, and lose them again at the end.
    """
    shape = total.shape
    s, total = s[None, None], total[None, None]
    # a mass of 0 has ln 0 = -inf, and one below 0 a nan
    with np.errstate(divide="ignore", invalid="ignore"):
        out = cells[0](s[..., 0], np.log(s[..., 0]))
        for i in range(1, len(cells) - 1):
            out += cells[i](s[..., i], np.log(s[..., i]))
        out += cells[-1](total, np.log(1.0 - total))
    out += constant
    out = out.reshape(shape)
    return out if out.ndim else float(out)


def _require_n_positive(instance):
    if instance.N < 1:
        raise ValueError("operation requires N = n - d >= 1")


def _require_gaussian(instance):
    if instance.gaussian_block_reason is not None:
        _require_n_positive(instance)
        raise ValueError(
            "Gaussian-route expansions require J_i >= 1 for every cell "
            f"(gaps j = {instance.j.tolist()})"
        )

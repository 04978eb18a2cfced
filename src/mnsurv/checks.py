"""Identity and consistency checks over built-in and randomized panels.

Every algebraic building block of the Gaussian representation is an exact
identity, so each check measures a residual that should sit at roundoff
level.  The suite reports one :class:`CheckResult` per named check; the
command-line ``check`` subcommand prints them and fails the process when any
residual exceeds its tolerance.  Route agreement runs its panel through
:func:`mnsurv.survival.compare_batch`, the driver of the command line.

The module also hosts the seeded random-instance generators shared with the
test suite, including the filtered panels used for the remainder-rate checks
(those require the leading remainder coefficient to dominate, otherwise the
measured convergence order is legitimately different).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expansions
from .covariance import quad_form, sigma_inverse_matrix, sigma_matrix
from .model import SurvivalInstance, build_instance, make_weights
from .survival import compare_batch, survival_exact

__all__ = [
    "CheckResult",
    "run_check_suite",
    "random_weights",
    "random_instance",
    "random_gaussian_ready_instance",
    "rate_test_instance",
    "rate_test_pair",
    "gamma_star_remainder",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def _result(name, residual, tolerance, detail=""):
    return CheckResult(name, float(residual), tolerance, bool(residual <= tolerance), detail)


# ---------------------------------------------------------------------------
# randomized panels

def random_weights(rng, d):
    """Well-conditioned random weights: a gamma draw mixed toward uniform."""
    raw = rng.gamma(2.0, size=d + 1)
    p = 0.55 * raw / raw.sum() + 0.45 / (d + 1)
    return p[:d]


def random_instance(rng, n_range=(4, 25)):
    """Unconstrained valid instance, d in 1..3; thresholds may be zero or infeasible."""
    d = int(rng.integers(1, 4))
    n = int(rng.integers(*n_range))
    p = random_weights(rng, d)
    k = rng.integers(0, max(2, n // d + 2) + 1, size=d)
    return build_instance(n, p, k)


def random_gaussian_ready_instance(rng, d=None, eps_bounds=(0.0, 0.3)):
    """Instance with n in 15..44, every ``J_i >= 1`` and bounded relative offsets."""
    lo, hi = eps_bounds
    for _ in range(10_000):
        dd = int(rng.integers(1, 4)) if d is None else d
        n = int(rng.integers(15, 45))
        p = random_weights(rng, dd)
        N = n - dd
        k = np.maximum(2, np.round(N * p + rng.integers(-3, 4, size=dd)).astype(int) + 1)
        if k.sum() > n - 1:
            continue
        inst = build_instance(n, p, k)
        if not np.all(inst.J >= 1):
            continue
        m = float(np.max(np.abs(inst.eps)))
        if lo <= m <= hi:
            return inst
    raise RuntimeError("failed to draw a suitable random instance")


# The rate checks' filters: a remainder's leading coefficient keeps this share.
_MIN_DOMINANCE = 0.6


def rate_test_instance(rng):
    """Instance whose fifth-order tilt coefficient dominates its absolute mass.

    The series-remainder rate check presumes the fifth-order term leads the
    truncation error; near-symmetric instances cancel it and genuinely decay
    one order faster, so they are filtered out here.
    """
    for _ in range(10_000):
        inst = random_gaussian_ready_instance(rng, eps_bounds=(0.05, 0.25))
        pf = inst.weights.p_full
        e = inst.eps_tilde
        den = float(np.sum(np.abs(e) ** 5 / pf**4))
        if den == 0.0:
            continue
        if abs(float(np.sum(e**5 / pf**4))) / den >= _MIN_DOMINANCE:
            return inst
    raise RuntimeError("failed to draw a rate-test instance")


def rate_test_pair(rng):
    """A (instance, direction) pair for the quadratic-remainder rate check of
    the position tilt, satisfying both dominance filters.

    The instance is a :func:`rate_test_instance`.  The direction is scaled so
    the largest relative displacement is 0.4, and filtered so the cubic
    coefficient of the remainder does not cancel.  When 200 draws find no
    such direction (possible for d = 1, where the direction only fixes the
    scale), the instance is redrawn.
    """
    for _ in range(1000):
        inst = rate_test_instance(rng)
        jn = inst.J / inst.N
        for _ in range(200):
            v = rng.normal(size=inst.d)
            w = np.append(v / inst.p, -v.sum() / inst.weights.p_last)
            w *= 0.4 / np.max(np.abs(w))
            if abs(float(np.sum(jn * w**3))) / float(np.sum(jn * np.abs(w) ** 3)) >= _MIN_DOMINANCE:
                return inst, w[: inst.d] * inst.p
    raise RuntimeError("failed to draw a rate-test pair")


def gamma_star_remainder(inst: SurvivalInstance, direction, t: float) -> float:
    """|gamma_star(p + t*v) + sum_i eps_tilde_i delta_i^2 / 2|; decays as t^3."""
    pf = inst.weights.p_full
    s = inst.p + t * np.asarray(direction, dtype=float)
    full = np.append(s, 1.0 - s.sum())
    delta = (full - pf) / pf
    lead = -0.5 * float(np.sum(inst.eps_tilde * delta**2))
    return abs(float(expansions.gamma_star(inst, s)) - lead)


def _interior_point(rng, inst):
    """Uniform draw from the interior of the nested region."""
    s = np.empty(inst.d)
    acc = 0.0
    for i in range(inst.d):
        upper = inst.weights.prefix[i] - acc
        s[i] = upper * rng.uniform(0.02, 0.98)
        acc += s[i]
    return s


# ---------------------------------------------------------------------------
# individual checks

def check_stirling_bounds() -> CheckResult:
    worst = 0.0
    for m in list(range(1, 1001)) + [10**6]:
        lam = expansions.stirling_lambda(m)
        worst = max(worst, 1.0 / (12 * m + 1) - lam, lam - 1.0 / (12 * m))
    return _result("stirling_bounds", max(worst, 0.0), 0.0, "m in 1..1000 and 1e6")


def check_covariance_algebra(rng) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 7))
        w = make_weights(random_weights(rng, d))
        sigma = sigma_matrix(w)
        det_closed = float(np.prod(w.p_full))
        det_dense = float(np.linalg.det(sigma))
        worst = max(worst, abs(det_dense - det_closed) / det_closed)
        eye_gap = np.max(np.abs(sigma @ sigma_inverse_matrix(w) - np.eye(d)))
        worst = max(worst, float(eye_gap))
    return _result("covariance_algebra", worst, 1e-10, "50 random weight vectors")


def check_quadratic_cancellation(rng) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        inst = random_gaussian_ready_instance(rng)
        scale = max(quad_form(inst.weights, inst.eps_tilde[: inst.d]), 1.0)
        worst = max(worst, abs(expansions.quadratic_cancellation_residual(inst)) / scale)
    return _result("quadratic_cancellation", worst, 1e-14, "50 random instances")


def check_entropy_identities(rng, tolerance) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        inst = random_gaussian_ready_instance(rng)
        jn = inst.J / inst.N
        pf = inst.weights.p_full
        et = inst.eps_tilde[: inst.d]
        half_quad = 0.5 * quad_form(inst.weights, et)
        # offset entropy identity
        lhs = float(np.sum(jn * np.log(pf / jn)))
        worst = max(worst, abs(lhs + half_quad + expansions.gamma_tilde(inst)))
        # positional entropy identity at a random interior point
        s = _interior_point(rng, inst)
        diff = s - jn[: inst.d]
        rhs = half_quad - 0.5 * quad_form(inst.weights, diff) + float(
            expansions.gamma_star(inst, s)
        )
        worst = max(worst, abs(float(expansions.entropy_lhs(inst, s)) - rhs))
    return _result("entropy_identities", worst, tolerance, "50 random instances")


def check_integrand_equality(rng, tolerance) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        inst = random_gaussian_ready_instance(rng)
        pts = np.vstack([_interior_point(rng, inst) for _ in range(100)])
        gap = np.abs(
            np.asarray(expansions.log_dirichlet_integrand(inst, pts))
            - np.asarray(expansions.log_gaussian_integrand(inst, pts))
        )
        worst = max(worst, float(gap.max()))
    return _result("integrand_equality", worst, tolerance, "20 instances x 100 points")


def check_h_properties(rng, tolerance) -> CheckResult:
    worst = 0.0
    hess_ok = True
    for _ in range(20):
        inst = random_gaussian_ready_instance(rng)
        jn = inst.J / inst.N
        # stationarity at the maximizer, exact in floating point
        worst = max(worst, float(np.max(np.abs(expansions.h_grad(inst, jn)))))
        # maximum-difference identity
        lhs = float(expansions.h_value(inst, inst.weights.p_full)) - float(
            expansions.h_value(inst, jn)
        )
        rhs = -0.5 * quad_form(inst.weights, inst.eps_tilde[: inst.d]) - expansions.gamma_tilde(inst)
        worst = max(worst, abs(lhs - rhs))
        # negative definiteness at a random interior point
        s = _interior_point(rng, inst)
        hess = expansions.h_hessian(inst, s)
        z = rng.normal(size=(50, inst.d))
        hess_ok &= bool(np.all(np.einsum("ij,jk,ik->i", z, hess, z) < 0.0))
    detail = "gradient, max-difference identity, Hessian definiteness"
    if not hess_ok:
        return CheckResult("h_properties", math.inf, tolerance, False, detail)
    return _result("h_properties", worst, tolerance, detail)


def check_remainder_rates(rng) -> CheckResult:
    lo, hi = math.inf, 0.0
    for _ in range(10):
        inst = rate_test_instance(rng)
        r = lambda t: abs(expansions.gamma_tilde(inst, t) - expansions.gamma_tilde_series(inst, t))
        ratio = r(0.2) / r(0.1)
        lo, hi = min(lo, ratio), max(hi, ratio)
    ok_tilde = 20.0 <= lo and hi <= 48.0
    lo2, hi2 = math.inf, 0.0
    for _ in range(10):
        inst, v = rate_test_pair(rng)
        ratio = gamma_star_remainder(inst, v, 0.2) / gamma_star_remainder(inst, v, 0.1)
        lo2, hi2 = min(lo2, ratio), max(hi2, ratio)
    ok_star = 6.0 <= lo2 and hi2 <= 10.0
    detail = f"series ratio [{lo:.1f}, {hi:.1f}] in [20,48]; quadratic [{lo2:.2f}, {hi2:.2f}] in [6,10]"
    return CheckResult("remainder_rates", 0.0, 0.0, ok_tilde and ok_star, detail)


def check_route_agreement(tolerance) -> CheckResult:
    panel = [
        (10, [0.3], [3]),
        (12, [0.25], [4]),
        (10, [0.3, 0.3], [2, 3]),
        (14, [0.2, 0.5], [2, 5]),
        (12, [0.2, 0.3, 0.25], [2, 3, 2]),
        (1000, [0.15] * 5, [145] * 5),
        (1000, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], [110, 95, 140, 110, 90, 130]),
    ]
    reports = compare_batch([build_instance(*row) for row in panel])
    worst = 0.0
    for r in reports:
        worst = max(worst, abs(r.dirichlet - r.exact) / r.exact,
                    abs(r.gaussian - r.dirichlet) / r.dirichlet)
    return _result("route_agreement", worst, tolerance, f"{len(panel)} instances, G={reports[0].nodes}")


def check_monotonicity(rng) -> CheckResult:
    worst = -math.inf
    for _ in range(60):
        inst = random_instance(rng, n_range=(3, 13))
        i = int(rng.integers(0, inst.d))
        k2 = inst.k.copy()
        k2[i] += 1
        bumped = build_instance(inst.n, inst.p, k2)
        worst = max(worst, survival_exact(bumped) - survival_exact(inst))
    return _result("monotonicity", max(worst, 0.0), 1e-12, "60 random (instance, axis) pairs")


def run_check_suite(seed=7, route_tol=1e-8, identity_tol=1e-10):
    """Run every check; returns the list of :class:`CheckResult`.

    ``route_tol`` bounds relative route disagreement; ``identity_tol`` bounds
    the pointwise identity residuals.  The sharper roundoff-level checks
    (Stirling bounds, covariance algebra, cancellation, monotonicity) carry
    their own fixed tolerances.
    """
    rng = np.random.default_rng(seed)
    return [
        check_stirling_bounds(),
        check_covariance_algebra(rng),
        check_quadratic_cancellation(rng),
        check_entropy_identities(rng, identity_tol),
        check_integrand_equality(rng, identity_tol),
        check_h_properties(rng, identity_tol),
        check_remainder_rates(rng),
        check_route_agreement(route_tol),
        check_monotonicity(rng),
    ]

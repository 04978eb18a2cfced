"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion asserts at its stated tolerance and runtime budget.
"""

import math
import time

import numpy as np

from mnsurv import (
    QuadratureSpec,
    build_instance,
    gamma_tilde,
    gamma_tilde_series,
    h_grad,
    h_hessian,
    h_value,
    log_dirichlet_integrand,
    log_gaussian_integrand,
    quad_form,
    quadratic_cancellation_residual,
    entropy_lhs,
    gamma_star,
    sigma_inverse_matrix,
    sigma_matrix,
    make_weights,
    stirling_lambda,
    survival_dirichlet,
    survival_exact,
    survival_gaussian,
    survival_mc,
)
from mnsurv.checks import (
    _interior_point,
    gamma_star_remainder,
    random_gaussian_ready_instance,
    random_instance,
    random_weights,
    rate_test_instance,
    rate_test_pair,
)
from oracles import binomial_tail


def _report(number, ok, detail):
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_binomial_reduction():
    start = time.perf_counter()
    inst = build_instance(10, [0.3], [3])
    oracle = binomial_tail(10, 0.3, 3)
    exact = survival_exact(inst)
    diri = survival_dirichlet(inst, QuadratureSpec(nodes=64))
    gauss = survival_gaussian(inst, QuadratureSpec(nodes=64))
    elapsed = time.perf_counter() - start
    r_exact = abs(exact - oracle) / oracle
    r_diri = abs(diri - oracle) / oracle
    r_gauss = abs(gauss - oracle) / oracle
    ok = r_exact <= 1e-12 and r_diri <= 1e-10 and r_gauss <= 1e-8 and elapsed < 1.0
    _report(
        1,
        ok,
        f"binomial tail {oracle:.12f}: exact rel {r_exact:.1e} (<=1e-12), "
        f"dirichlet rel {r_diri:.1e} (<=1e-10), gaussian rel {r_gauss:.1e} (<=1e-8), "
        f"{elapsed:.2f}s (<1s)",
    )


def test_criterion_02_two_cell_panel():
    start = time.perf_counter()
    spec = QuadratureSpec(nodes=48)
    worst_d = worst_g = 0.0
    count = 0
    for n in (5, 10, 20):
        for p in ([0.3, 0.3], [0.2, 0.5]):
            for k1 in range(2, n):
                for k2 in range(2, n - k1 + 1):
                    if k1 + k2 > n - 1:
                        continue
                    inst = build_instance(n, p, [k1, k2])
                    exact = survival_exact(inst)
                    worst_d = max(worst_d, abs(survival_dirichlet(inst, spec) - exact) / exact)
                    worst_g = max(worst_g, abs(survival_gaussian(inst, spec) - exact) / exact)
                    count += 1
    elapsed = time.perf_counter() - start
    ok = worst_d <= 1e-8 and worst_g <= 1e-6 and elapsed < 60.0
    _report(
        2,
        ok,
        f"{count} instances: max dirichlet rel {worst_d:.1e} (<=1e-8), "
        f"max gaussian rel {worst_g:.1e} (<=1e-6), {elapsed:.1f}s (<60s)",
    )


def test_criterion_03_three_cell_smoke():
    start = time.perf_counter()
    inst = build_instance(12, [0.2, 0.3, 0.25], [2, 3, 2])
    spec = QuadratureSpec(nodes=32)
    vals = [
        survival_exact(inst),
        survival_dirichlet(inst, spec),
        survival_gaussian(inst, spec),
    ]
    elapsed = time.perf_counter() - start
    worst = max(
        abs(a - b) / max(a, b) for i, a in enumerate(vals) for b in vals[i + 1 :]
    )
    ok = worst <= 1e-6 and elapsed < 120.0
    _report(3, ok, f"pairwise rel diff {worst:.1e} (<=1e-6), {elapsed:.1f}s (<120s)")


def test_criterion_04_monte_carlo():
    start = time.perf_counter()
    inst = build_instance(10, [0.3], [3])
    oracle = binomial_tail(10, 0.3, 3)
    gaps = []
    for seed in (101, 202, 303):
        est, se = survival_mc(inst, 10**6, seed)
        gaps.append(abs(est - oracle) / se)
    elapsed = time.perf_counter() - start
    ok = max(gaps) <= 4.0 and elapsed < 30.0
    _report(
        4, ok, f"3 seeds, worst |err|/stderr {max(gaps):.2f} (<=4), {elapsed:.1f}s (<30s)"
    )


def test_criterion_05_stirling():
    worst = 0.0
    for m in list(range(1, 1001)) + [10**6]:
        lam = stirling_lambda(m)
        worst = max(worst, 1 / (12 * m + 1) - lam, lam - 1 / (12 * m))
    gap1 = abs(stirling_lambda(1) - (1 - 0.5 * math.log(2 * math.pi)))
    ok = worst <= 0.0 and gap1 <= 1e-14
    _report(
        5, ok, f"bounds hold on 1..1000 and 1e6 (worst excess {worst:.1e}), "
        f"lambda_1 gap {gap1:.1e} (<=1e-14)"
    )


def test_criterion_06_pointwise_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        inst = random_gaussian_ready_instance(rng)
        pts = np.vstack([_interior_point(rng, inst) for _ in range(100)])
        gap = np.abs(
            np.asarray(log_dirichlet_integrand(inst, pts))
            - np.asarray(log_gaussian_integrand(inst, pts))
        )
        worst = max(worst, float(gap.max()))
    ok = worst <= 1e-10
    _report(6, ok, f"20x100 points: max |log gap| {worst:.1e} (<=1e-10)")


def test_criterion_07_identity_suite():
    rng = np.random.default_rng(707)
    worst_cancel = worst_ent1 = worst_ent2 = worst_maxdiff = worst_grad = 0.0
    hessian_ok = True
    for _ in range(30):
        inst = random_gaussian_ready_instance(rng)
        d = inst.d
        et = inst.eps_tilde[:d]
        jn = inst.J / inst.N
        scale = max(quad_form(inst.weights, et), 1.0)
        worst_cancel = max(
            worst_cancel, abs(quadratic_cancellation_residual(inst)) / scale
        )
        lhs1 = float(np.sum(jn * np.log(inst.weights.p_full / jn)))
        worst_ent1 = max(
            worst_ent1,
            abs(lhs1 + 0.5 * quad_form(inst.weights, et) + gamma_tilde(inst)),
        )
        s = _interior_point(rng, inst)
        rhs2 = (
            0.5 * quad_form(inst.weights, et)
            - 0.5 * quad_form(inst.weights, s - jn[:d])
            + gamma_star(inst, s)
        )
        worst_ent2 = max(worst_ent2, abs(entropy_lhs(inst, s) - rhs2))
        lhs3 = h_value(inst, inst.weights.p_full) - h_value(inst, jn)
        rhs3 = -0.5 * quad_form(inst.weights, et) - gamma_tilde(inst)
        worst_maxdiff = max(worst_maxdiff, abs(lhs3 - rhs3))
        worst_grad = max(worst_grad, float(np.max(np.abs(h_grad(inst, jn)))))
    inst = random_gaussian_ready_instance(rng, d=3)
    hess = h_hessian(inst, _interior_point(rng, inst))
    for _ in range(1000):
        z = rng.normal(size=3)
        hessian_ok &= bool(z @ hess @ z < 0.0)
    ok = (
        worst_cancel <= 1e-14
        and worst_ent1 <= 1e-12
        and worst_ent2 <= 1e-12
        and worst_maxdiff <= 1e-12
        and worst_grad == 0.0
        and hessian_ok
    )
    _report(
        7,
        ok,
        f"cancellation {worst_cancel:.1e} (<=1e-14), offset entropy {worst_ent1:.1e} "
        f"(<=1e-12), positional entropy {worst_ent2:.1e} (<=1e-12), max-diff "
        f"{worst_maxdiff:.1e} (<=1e-12), grad {worst_grad:.1e} (=0), hessian<0 {hessian_ok}",
    )


def test_criterion_08_remainder_rates():
    rng = np.random.default_rng(808)
    tilde_ratios = []
    for _ in range(10):
        inst = rate_test_instance(rng)
        r = lambda t: abs(gamma_tilde(inst, t) - gamma_tilde_series(inst, t))
        tilde_ratios.append(r(0.2) / r(0.1))
    star_ratios = []
    for _ in range(10):
        inst, v = rate_test_pair(rng)
        star_ratios.append(
            gamma_star_remainder(inst, v, 0.2) / gamma_star_remainder(inst, v, 0.1)
        )
    ok = (
        min(tilde_ratios) >= 20.0
        and max(tilde_ratios) <= 48.0
        and min(star_ratios) >= 6.0
        and max(star_ratios) <= 10.0
    )
    _report(
        8,
        ok,
        f"series ratios [{min(tilde_ratios):.1f}, {max(tilde_ratios):.1f}] in [20,48]; "
        f"quadratic ratios [{min(star_ratios):.2f}, {max(star_ratios):.2f}] in [6,10]",
    )


def test_criterion_09_covariance_algebra():
    rng = np.random.default_rng(909)
    worst_det = worst_inv = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 7))
        w = make_weights(random_weights(rng, d))
        closed = float(np.prod(w.p_full))
        worst_det = max(
            worst_det, abs(float(np.linalg.det(sigma_matrix(w))) - closed) / closed
        )
        worst_inv = max(
            worst_inv,
            float(np.max(np.abs(sigma_matrix(w) @ sigma_inverse_matrix(w) - np.eye(d)))),
        )
    ok = worst_det <= 1e-10 and worst_inv <= 1e-10
    _report(
        9, ok, f"50 draws: det rel {worst_det:.1e} (<=1e-10), "
        f"inverse identity {worst_inv:.1e} (<=1e-10)"
    )


def test_criterion_10_monotonicity():
    rng = np.random.default_rng(1010)
    worst = -math.inf
    for _ in range(200):
        inst = random_instance(rng, n_range=(2, 14))
        axis = int(rng.integers(0, inst.d))
        k2 = inst.k.copy()
        k2[axis] += 1
        worst = max(
            worst,
            survival_exact(build_instance(inst.n, inst.p, k2)) - survival_exact(inst),
        )
    ok = worst <= 1e-12
    _report(10, ok, f"200 pairs: max increase {worst:.1e} (<=1e-12)")

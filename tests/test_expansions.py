import math

import mpmath as mp
import numpy as np
import pytest

from mnsurv import (
    build_instance,
    capital_lambda,
    delta_n,
    dirichlet_factors,
    entropy_lhs,
    expansion_context,
    gamma_star,
    gamma_tilde,
    gamma_tilde_series,
    gaussian_factors,
    h_grad,
    h_hessian,
    h_value,
    log_dirichlet_integrand,
    log_factorial,
    log_gaussian_integrand,
    log_mvn_density,
    quad_form,
    quadratic_cancellation_residual,
    stirling_lambda,
)
from mnsurv.checks import (
    gamma_star_remainder,
    random_gaussian_ready_instance,
    rate_test_instance,
    rate_test_pair,
)
from mnsurv.expansions import gamma_tilde_scaled, gamma_tilde_series_scaled

mp.mp.dps = 50

# the running example: n=4, p=(0.5), k=(2) has N=3, J=(1,2), eps=(-1/3, 1/3)
EXAMPLE = (4, [0.5], [2])


def example_instance():
    return build_instance(*EXAMPLE)


def lambda_oracle(m):
    """Stirling error via 50-digit arithmetic."""
    return float(mp.log(mp.factorial(m)) - mp.mpf(0.5) * mp.log(2 * mp.pi * m)
                 - m * mp.log(m) + m)


class TestStirlingLambda:
    def test_first_value(self):
        assert stirling_lambda(1) == pytest.approx(1 - 0.5 * math.log(2 * math.pi), abs=1e-14)
        assert stirling_lambda(1) == pytest.approx(0.08106146679532726, abs=1e-14)

    def test_second_value(self):
        assert stirling_lambda(2) == pytest.approx(0.0413406959554093, abs=1e-14)
        assert 1 / 25 <= stirling_lambda(2) <= 1 / 24

    def test_against_high_precision(self):
        for m in list(range(21, 31)) + [50, 100, 1000, 12345]:
            assert stirling_lambda(m) == pytest.approx(lambda_oracle(m), rel=1e-13, abs=0.0)

    def test_small_m_against_high_precision(self):
        for m in range(1, 21):
            assert stirling_lambda(m) == pytest.approx(lambda_oracle(m), rel=1e-13, abs=0.0)

    def test_bounds_sweep(self):
        for m in list(range(1, 1001)) + [10**6]:
            lam = stirling_lambda(m)
            assert 1 / (12 * m + 1) <= lam <= 1 / (12 * m), f"m={m}"

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            stirling_lambda(0)

    def test_log_factorial(self):
        for m in range(0, 25):
            assert log_factorial(m) == pytest.approx(math.log(math.factorial(m)), rel=1e-14, abs=1e-14)
        assert log_factorial(500) == pytest.approx(
            float(mp.log(mp.factorial(500))), rel=1e-13, abs=0.0
        )


class TestCapitalLambda:
    def test_example_value(self):
        # lambda_3 - (lambda_1 + lambda_2), frozen from the 50-digit oracle
        assert capital_lambda(example_instance()) == pytest.approx(
            -0.09472423706573821, abs=1e-13
        )

    def test_smallest_structure(self):
        inst = build_instance(3, [0.5], [2])  # J = (1, 1), N = 2
        assert inst.J.tolist() == [1, 1]
        expected = stirling_lambda(2) - 2 * stirling_lambda(1)
        assert capital_lambda(inst) == pytest.approx(expected, abs=1e-15)

    def test_block_permutation_invariance(self):
        a = build_instance(20, [0.2, 0.3], [3, 5])
        b = build_instance(20, [0.3, 0.2], [5, 3])
        assert capital_lambda(a) == pytest.approx(capital_lambda(b), abs=1e-16)

    def test_rejects_zero_gap(self):
        inst = build_instance(4, [0.5], [1])  # J = (0, 3)
        with pytest.raises(ValueError):
            capital_lambda(inst)


class TestGammaTilde:
    def test_zero_offset(self):
        inst = build_instance(6, [0.4], [3])  # J/N = (0.4, 0.6) = p exactly
        assert np.all(inst.eps == 0.0)
        assert gamma_tilde(inst) == 0.0
        assert gamma_tilde_series(inst) == 0.0

    def test_example_value(self):
        # entropy part ~0.05663301, quadratic part 1/18
        assert gamma_tilde(example_instance()) == pytest.approx(
            0.0010774567095769355, abs=1e-15
        )

    def test_series_example(self):
        inst = example_instance()
        # cubic term cancels by symmetry; quartic = (1/12)(1/6)^4 * 16 = 1/972
        assert gamma_tilde_series(inst) == pytest.approx(1 / 972, rel=1e-14, abs=0.0)

    def test_series_close_for_small_offsets(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            inst = random_gaussian_ready_instance(rng, eps_bounds=(0.0, 0.2))
            gap = abs(gamma_tilde(inst) - gamma_tilde_series(inst))
            scale = float(np.sum(np.abs(inst.eps)) ** 5)
            bound = scale / np.min(inst.weights.p_full) ** 4
            assert gap <= max(bound, 1e-15)

    def test_remainder_rate(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            inst = rate_test_instance(rng)
            r = lambda t: abs(
                gamma_tilde_scaled(inst, t) - gamma_tilde_series_scaled(inst, t)
            )
            ratio = r(0.2) / r(0.1)
            assert 20.0 <= ratio <= 48.0


class TestQuadraticCancellation:
    def test_zero_offset(self):
        inst = build_instance(6, [0.4], [3])
        assert quadratic_cancellation_residual(inst) == 0.0

    def test_example(self):
        assert abs(quadratic_cancellation_residual(example_instance())) <= 1e-16

    def test_random_three_cell(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            inst = random_gaussian_ready_instance(rng, d=3)
            scale = max(quad_form(inst.weights, inst.eps_tilde[:3]), 1.0)
            assert abs(quadratic_cancellation_residual(inst)) <= 1e-14 * scale


class TestDeltaN:
    def test_example_value(self):
        assert delta_n(example_instance()) == pytest.approx(0.24861698308550365, abs=1e-13)

    def test_vanishes_for_large_samples(self):
        values = []
        for N in (100, 1000, 10000):
            p = 0.3
            k = round(N * p) + 1
            inst = build_instance(N + 1, [p], [k])
            values.append(abs(delta_n(inst)))
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-3

    def test_block_permutation_invariance(self):
        a = build_instance(20, [0.2, 0.3], [3, 5])
        b = build_instance(20, [0.3, 0.2], [5, 3])
        assert delta_n(a) == pytest.approx(delta_n(b), abs=1e-15)


class TestGammaStar:
    def test_zero_at_center(self):
        inst = example_instance()
        assert gamma_star(inst, inst.p) == 0.0

    def test_definition_unrolled(self):
        from mnsurv import bilinear_form

        inst = example_instance()
        s = np.array([0.4])
        diff = s - inst.p
        direct = (
            entropy_lhs(inst, s)
            - bilinear_form(inst.weights, inst.eps_tilde[:1], diff)
            + 0.5 * quad_form(inst.weights, diff)
        )
        assert gamma_star(inst, s) == pytest.approx(direct, abs=1e-16)

    def test_quadratic_remainder_rate(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            inst, v = rate_test_pair(rng)
            ratio = gamma_star_remainder(inst, v, 0.2) / gamma_star_remainder(inst, v, 0.1)
            assert 6.0 <= ratio <= 10.0

    def test_rejects_boundary(self):
        inst = example_instance()
        with pytest.raises(ValueError):
            gamma_star(inst, [0.0])
        with pytest.raises(ValueError):
            gamma_star(inst, [1.0])  # implied last coordinate hits zero


class TestEntropyIdentities:
    def test_lhs_at_center(self):
        inst = example_instance()
        assert entropy_lhs(inst, inst.p) == 0.0

    def test_positional_identity(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            inst = random_gaussian_ready_instance(rng)
            s = _interior(rng, inst)
            jn = inst.J / inst.N
            et = inst.eps_tilde[: inst.d]
            rhs = (
                0.5 * quad_form(inst.weights, et)
                - 0.5 * quad_form(inst.weights, s - jn[: inst.d])
                + gamma_star(inst, s)
            )
            assert entropy_lhs(inst, s) == pytest.approx(rhs, abs=1e-12)

    def test_lhs_at_maximizer(self):
        rng = np.random.default_rng(26)
        inst = random_gaussian_ready_instance(rng)
        jn = inst.J / inst.N
        lhs = entropy_lhs(inst, jn)
        rhs = 0.5 * quad_form(inst.weights, inst.eps_tilde[: inst.d]) + gamma_star(inst, jn)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_offset_identity(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            inst = random_gaussian_ready_instance(rng)
            jn = inst.J / inst.N
            lhs = float(np.sum(jn * np.log(inst.weights.p_full / jn)))
            rhs = -0.5 * quad_form(inst.weights, inst.eps_tilde[: inst.d]) - gamma_tilde(inst)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestH:
    def test_gradient_vanishes_exactly_at_maximizer(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            inst = random_gaussian_ready_instance(rng)
            grad = h_grad(inst, inst.J / inst.N)
            assert np.all(grad == 0.0)

    def test_maximum_difference_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            inst = random_gaussian_ready_instance(rng)
            lhs = h_value(inst, inst.weights.p_full) - h_value(inst, inst.J / inst.N)
            rhs = -0.5 * quad_form(inst.weights, inst.eps_tilde[: inst.d]) - gamma_tilde(inst)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_hessian_negative_definite(self):
        rng = np.random.default_rng(30)
        inst = random_gaussian_ready_instance(rng, d=3)
        s = _interior(rng, inst)
        hess = h_hessian(inst, s)
        np.testing.assert_allclose(hess, hess.T)
        for _ in range(1000):
            z = rng.normal(size=3)
            assert z @ hess @ z < 0.0

    def test_decomposition_consistency(self):
        # exp(N[H(s)-H(p)]) * exp(N[H(p)-H(J/N)]) == exp(N[H(s)-H(J/N)])
        rng = np.random.default_rng(31)
        for _ in range(50):
            inst = random_gaussian_ready_instance(rng)
            s = _interior(rng, inst)
            jn = inst.J / inst.N
            n = inst.N
            lhs = n * (h_value(inst, s) - h_value(inst, inst.weights.p_full)) + n * (
                h_value(inst, inst.weights.p_full) - h_value(inst, jn)
            )
            rhs = n * (h_value(inst, s) - h_value(inst, jn))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestIntegrands:
    def test_dirichlet_example(self):
        # n=2, k=(1): gaps (1, 2), prefactor 2, integrand 2*(1-s)
        inst = build_instance(2, [0.5], [1])
        assert log_dirichlet_integrand(inst, [0.25]) == pytest.approx(math.log(1.5), abs=1e-15)

    def test_boundary_is_minus_infinity(self):
        inst = build_instance(4, [0.5], [2])
        assert log_dirichlet_integrand(inst, [0.0]) == -math.inf
        values = [log_dirichlet_integrand(inst, [s]) for s in (0.2, 0.02, 0.002, 0.0002)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_zero_gap_cell_contributes_nothing(self):
        # first cell has J_1 = 0: its coordinate may touch zero harmlessly
        inst = build_instance(2, [0.5], [1])
        val = log_dirichlet_integrand(inst, [0.0])
        assert val == pytest.approx(math.log(2.0), abs=1e-15)

    def test_pointwise_equality_example(self):
        inst = example_instance()
        gap = abs(
            log_dirichlet_integrand(inst, [0.5]) - log_gaussian_integrand(inst, [0.5])
        )
        assert gap <= 1e-12

    def test_pointwise_equality_random(self):
        rng = np.random.default_rng(32)
        worst = 0.0
        for _ in range(20):
            inst = random_gaussian_ready_instance(rng)
            pts = np.vstack([_interior(rng, inst) for _ in range(100)])
            gap = np.abs(
                np.asarray(log_dirichlet_integrand(inst, pts))
                - np.asarray(log_gaussian_integrand(inst, pts))
            )
            worst = max(worst, float(gap.max()))
        assert worst <= 1e-10

    def test_gaussian_peak_at_maximizer(self):
        inst = build_instance(10, [0.3, 0.3], [3, 4])
        jn = (inst.J / inst.N)[:2]
        # the normal-density argument vanishes there, up to roundoff
        z = inst.weights.p - jn + inst.eps_tilde[:2]
        assert np.max(np.abs(z)) <= 1e-15
        center = log_gaussian_integrand(inst, jn)
        for axis in range(2):
            for delta in (-1e-3, 1e-3):
                bumped = jn.copy()
                bumped[axis] += delta
                assert log_gaussian_integrand(inst, bumped) < center

    def test_gaussian_requires_positive_gaps(self):
        inst = build_instance(2, [0.5], [1])  # J = (0, 1)
        with pytest.raises(ValueError):
            log_gaussian_integrand(inst, [0.25])

    def test_context_invariants(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            inst = random_gaussian_ready_instance(rng)
            ctx = expansion_context(inst)
            for m in [inst.N] + inst.J.tolist():
                assert 1 / (12 * m + 1) <= stirling_lambda(m) <= 1 / (12 * m)
            assert ctx.capital_lambda == capital_lambda(inst)
            assert abs(ctx.capital_lambda) <= 1 / (12 * inst.N) + sum(
                1 / (12 * j) for j in inst.J
            )

    @pytest.mark.parametrize(
        "n, p, k",
        [(40, [0.2, 0.25, 0.2, 0.15], [6, 9, 7, 5]), (12, [0.3, 0.3], [3, 4]), (9, [0.4], [3])],
    )
    def test_memory_order_does_not_change_values(self, n, p, k):
        inst = build_instance(n, p, k)
        rng = np.random.default_rng(34)
        pts = np.vstack([_interior(rng, inst) for _ in range(500)])
        fortran = np.asfortranarray(pts)
        assert pts.flags.c_contiguous and fortran.flags.f_contiguous
        ctx = expansion_context(inst)
        for logf in (
            lambda s: log_dirichlet_integrand(inst, s),
            lambda s: log_gaussian_integrand(inst, s),
            lambda s: log_gaussian_integrand(ctx, s),
        ):
            np.testing.assert_allclose(logf(fortran), logf(pts), rtol=1e-15, atol=0)

    def test_factors_match_the_unsplit_formulas(self):
        # the factors split sum_i over cells and Sigma^-1 = diag(1/p) + 11^T/p_last;
        # here both integrands are formed whole, from the covariance module
        from mnsurv import bilinear_form

        rng = np.random.default_rng(39)
        for _ in range(20):
            inst = random_gaussian_ready_instance(rng)
            d, N = inst.d, inst.N
            pts = np.vstack([_interior(rng, inst) for _ in range(50)])
            full = np.column_stack([pts, 1.0 - pts.sum(axis=1)])
            diri = (math.lgamma(N + d + 1) - sum(math.lgamma(j + 1) for j in inst.J)
                    + np.log(full) @ inst.J)
            diff = pts - inst.p
            et = inst.eps_tilde[:d]
            star = (np.log(full / inst.weights.p_full) @ (inst.J / N)
                    - bilinear_form(inst.weights, et, diff) + 0.5 * quad_form(inst.weights, diff))
            gauss = (delta_n(inst) + 0.5 * d * math.log(N) + N * star
                     + log_mvn_density(inst.weights, math.sqrt(N) * (et - diff)))
            np.testing.assert_allclose(log_dirichlet_integrand(inst, pts), diri, rtol=0, atol=1e-10)
            np.testing.assert_allclose(log_gaussian_integrand(inst, pts), gauss, rtol=0, atol=1e-10)
            np.testing.assert_allclose(gamma_star(inst, pts), star, rtol=0, atol=1e-13)

    def test_factors_carry_their_powers(self):
        inst = build_instance(40, [0.2, 0.25, 0.2, 0.15], [6, 9, 7, 5])
        for factors in (dirichlet_factors(inst), gaussian_factors(inst)):
            assert factors.powers == tuple(inst.J[:4].tolist())
            assert len(factors.steps) == 4

    def test_context_stands_in_for_instance(self):
        inst = build_instance(40, [0.2, 0.25, 0.2, 0.15], [6, 9, 7, 5])
        pts = np.vstack([_interior(np.random.default_rng(35), inst) for _ in range(50)])
        ctx = expansion_context(inst)
        assert np.array_equal(log_gaussian_integrand(ctx, pts), log_gaussian_integrand(inst, pts))
        assert log_gaussian_integrand(ctx, pts[0]) == log_gaussian_integrand(inst, pts[0])


# Gaussian-ready instances for d = 1..4 and 6
COLUMN_INSTANCES = [
    (30, [0.4], [10]),
    (40, [0.3, 0.25], [10, 8]),
    (50, [0.2, 0.3, 0.2], [9, 14, 8]),
    (60, [0.2, 0.25, 0.2, 0.15], [10, 13, 10, 7]),
    (70, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], [7, 6, 9, 7, 6, 8]),
]


def _row_block(rng, inst, rows, g):
    """Interior points as a quadrature block: (rows, 1) outer columns and a
    (rows, g) innermost column."""
    cols = []
    acc = np.zeros((rows, 1))
    for i in range(inst.d - 1):
        col = (inst.weights.prefix[i] - acc) * rng.uniform(0.02, 0.98, (rows, 1))
        cols.append(col)
        acc = acc + col
    cols.append((inst.weights.prefix[-1] - acc) * rng.uniform(0.02, 0.98, (1, g)))
    return tuple(cols)


def _materialised(cols):
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    return np.stack([np.broadcast_to(c, shape) for c in cols], axis=-1).reshape(-1, len(cols))


class TestBroadcastColumns:
    @pytest.mark.parametrize("n, p, k", COLUMN_INSTANCES)
    def test_integrands_match_materialised_points_bit_for_bit(self, n, p, k):
        inst = build_instance(n, p, k)
        rows = 1 if inst.d == 1 else 7
        cols = _row_block(np.random.default_rng(36), inst, rows, 11)
        pts = _materialised(cols)
        ctx = expansion_context(inst)
        for logf in (
            lambda s: log_dirichlet_integrand(inst, s),
            lambda s: log_gaussian_integrand(inst, s),
            lambda s: log_gaussian_integrand(ctx, s),
        ):
            on_cols = logf(cols)
            assert on_cols.shape == (rows, 11)
            assert np.array_equal(on_cols.ravel(), logf(pts))
            assert np.array_equal(on_cols.ravel(), logf(np.asfortranarray(pts)))

    @pytest.mark.parametrize("n, p, k", COLUMN_INSTANCES)
    def test_log_mvn_density_matches_materialised_points_bit_for_bit(self, n, p, k):
        inst = build_instance(n, p, k)
        rows = 1 if inst.d == 1 else 7
        cols = tuple(3.0 * c - 0.2 for c in _row_block(np.random.default_rng(37), inst, rows, 11))
        pts = _materialised(cols)
        reference = log_mvn_density(inst.weights, pts)
        assert np.array_equal(np.ravel(log_mvn_density(inst.weights, cols)), reference)
        assert log_mvn_density(inst.weights, pts[3]) == reference[3]

    def test_columns_of_a_single_point_give_a_float(self):
        inst = build_instance(*COLUMN_INSTANCES[3])
        s = _interior(np.random.default_rng(38), inst)
        for f in (log_dirichlet_integrand, log_gaussian_integrand, gamma_star, h_value):
            value = f(inst, tuple(s))
            assert isinstance(value, float) and value == f(inst, s)

    def test_wrong_number_of_columns(self):
        inst = build_instance(*COLUMN_INSTANCES[2])
        with pytest.raises(ValueError, match="coordinates"):
            log_dirichlet_integrand(inst, (np.ones(3),) * 5)
        with pytest.raises(ValueError, match="coordinates"):
            log_mvn_density(inst.weights, (np.ones(3),) * 2)


def _interior(rng, inst):
    s = np.empty(inst.d)
    acc = 0.0
    for i in range(inst.d):
        upper = inst.weights.prefix[i] - acc
        s[i] = upper * rng.uniform(0.02, 0.98)
        acc += s[i]
    return s

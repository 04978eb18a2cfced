import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

from mnsurv import (
    bilinear_form,
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
            r = lambda t: abs(gamma_tilde(inst, t) - gamma_tilde_series(inst, t))
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
        inst = example_instance()
        assert delta_n(inst) == pytest.approx(0.24861698308550365, abs=1e-13)
        assert delta_n(inst) == expansion_context(inst).delta_n

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
        # a cell with J_i = 0 may have zero mass harmlessly
        for n, p, k, point, value in [
            (2, [0.5], [1], [0.0], 2.0),                # J = (0, 1): s_1 = 0
            (2, [0.5], [2], [1.0], 2.0),                # J = (1, 0): s_2 = 1 - T_1 = 0
            (2, [0.5], [2], [1.0, 0.0], 2.0),           # the same point in full coordinates
            (3, [0.3, 0.3], [1, 2], [0.5, 0.5], 3.0),   # J = (0, 1, 0): T_2 = 1
        ]:
            val = log_dirichlet_integrand(build_instance(n, p, k), point)
            assert val == pytest.approx(math.log(value), abs=1e-15)

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
            assert ctx.gamma_tilde == gamma_tilde(inst) and ctx.delta_n == delta_n(inst)
            assert abs(capital_lambda(inst)) <= 1 / (12 * inst.N) + sum(
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
        for logf in (
            lambda s: log_dirichlet_integrand(inst, s),
            lambda s: log_gaussian_integrand(inst, s),
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
            gauss = (expansion_context(inst).delta_n + 0.5 * d * math.log(N) + N * star
                     + log_mvn_density(inst.weights, math.sqrt(N) * (et - diff)))
            np.testing.assert_allclose(log_dirichlet_integrand(inst, pts), diri, rtol=0, atol=1e-10)
            np.testing.assert_allclose(log_gaussian_integrand(inst, pts), gauss, rtol=0, atol=1e-10)
            np.testing.assert_allclose(gamma_star(inst, pts), star, rtol=0, atol=1e-13)

    def test_factors_carry_their_powers(self):
        inst = build_instance(40, [0.2, 0.25, 0.2, 0.15], [6, 9, 7, 5])
        for factors in (dirichlet_factors([inst]), gaussian_factors([expansion_context(inst)])):
            np.testing.assert_array_equal(factors.powers, [inst.J[:4]])
            assert len(factors.steps) == 5  # one per cell


# Gaussian-ready instances for d = 1..4 and 6
COLUMN_INSTANCES = [
    (30, [0.4], [10]),
    (40, [0.3, 0.25], [10, 8]),
    (50, [0.2, 0.3, 0.2], [9, 14, 8]),
    (60, [0.2, 0.25, 0.2, 0.15], [10, 13, 10, 7]),
    (70, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], [7, 6, 9, 7, 6, 8]),
]


def _row_block(rng, inst, rows, g):
    """Interior points in a (rows, g, d) batch: the outer coordinates are
    shared along the g axis, the innermost one varies."""
    outer = np.zeros((rows, 1, inst.d - 1))
    acc = np.zeros((rows, 1))
    for i in range(inst.d - 1):
        outer[..., i] = (inst.weights.prefix[i] - acc) * rng.uniform(0.02, 0.98, (rows, 1))
        acc = acc + outer[..., i]
    inner = (inst.weights.prefix[-1] - acc) * rng.uniform(0.02, 0.98, (1, g))
    return np.concatenate([np.broadcast_to(outer, (rows, g, inst.d - 1)), inner[..., None]],
                          axis=-1)


def _materialised(batch):
    return batch.reshape(-1, batch.shape[-1])


class TestBroadcastColumns:
    """A batch is an array whose last axis holds the coordinates; any
    leading shape gives the bits of the same points as rows of a matrix."""

    @pytest.mark.parametrize("n, p, k", COLUMN_INSTANCES)
    def test_integrands_match_materialised_points_bit_for_bit(self, n, p, k):
        inst = build_instance(n, p, k)
        rows = 1 if inst.d == 1 else 7
        batch = _row_block(np.random.default_rng(36), inst, rows, 11)
        pts = _materialised(batch)
        for logf in (
            lambda s: log_dirichlet_integrand(inst, s),
            lambda s: log_gaussian_integrand(inst, s),
        ):
            on_batch = logf(batch)
            assert on_batch.shape == (rows, 11)
            assert np.array_equal(on_batch.ravel(), logf(pts))
            assert np.array_equal(on_batch.ravel(), logf(np.asfortranarray(pts)))

    @pytest.mark.parametrize("n, p, k", COLUMN_INSTANCES)
    def test_log_mvn_density_matches_materialised_points_bit_for_bit(self, n, p, k):
        inst = build_instance(n, p, k)
        rows = 1 if inst.d == 1 else 7
        batch = 3.0 * _row_block(np.random.default_rng(37), inst, rows, 11) - 0.2
        pts = _materialised(batch)
        reference = log_mvn_density(inst.weights, pts)
        assert np.array_equal(np.ravel(log_mvn_density(inst.weights, batch)), reference)
        assert log_mvn_density(inst.weights, pts[3]) == reference[3]

    def test_columns_of_a_single_point_give_a_float(self):
        inst = build_instance(*COLUMN_INSTANCES[3])
        s = _interior(np.random.default_rng(38), inst)
        for f in (log_dirichlet_integrand, log_gaussian_integrand, gamma_star, h_value):
            value = f(inst, s)
            assert isinstance(value, float) and value == f(inst, s[None, :])[0]

    def test_wrong_number_of_columns(self):
        inst = build_instance(*COLUMN_INSTANCES[2])
        with pytest.raises(ValueError, match="coordinates"):
            log_dirichlet_integrand(inst, np.ones((3, 5)))
        with pytest.raises(ValueError, match="coordinates"):
            log_mvn_density(inst.weights, np.ones((3, 2)))

# one Gaussian-ready instance (every J_i >= 1) for each d = 1..6
FROZEN_INSTANCES = [
    (30, [0.4], [10]),
    (40, [0.3, 0.25], [10, 8]),
    (50, [0.2, 0.3, 0.2], [9, 14, 8]),
    (60, [0.2, 0.25, 0.2, 0.15], [10, 13, 10, 7]),
    (65, [0.15, 0.2, 0.1, 0.2, 0.15], [8, 11, 5, 11, 8]),
    (70, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], [7, 6, 9, 7, 6, 8]),
]

FROZEN_IDS = [f"d{len(p)}" for _, p, _ in FROZEN_INSTANCES]

# sha256 of the float.hex of every value _frozen_values gives on the seeded
# (2, 3, d) batch of _frozen_batch, one digest per d
FROZEN_DIGESTS = {
    1: "81e3b4eeb8ba53f3f5820d10bf92de67b96496c1263cee585a831ba66cff14a0",
    2: "682fd91cf37dec3f49ab6a3664b72dc3e6b0c6beeeea202fc6523939f7ae2031",
    3: "f5c4610728a96f88f3d091b49cb70094c67bddc58f313b19118dd98997465448",
    4: "3594c2ceebfbd49a347801530f980c09703df2b0ab5ac6239ea81729b2c0a7db",
    5: "c8b83840ab62c33c9b2cc3cb42f29a768355654baf2a0b54947d8dc2d768b6b4",
    6: "df65e96201d95da5894f2ded0b8c244c718f5d7c2a9d9d6a4d9cd11926952c53",
}


def _frozen_batch(inst):
    """Interior points (free and full coordinates) and off-simplex points."""
    rng = np.random.default_rng(40 + inst.d)
    pts = np.stack([_interior(rng, inst) for _ in range(6)]).reshape(2, 3, inst.d)
    full = np.concatenate([pts, 1.0 - pts.sum(axis=-1, keepdims=True)], axis=-1)
    return pts, full, 3.0 * pts - 0.2


def _frozen_values(inst, pts, full, x):
    w = inst.weights
    return {
        "quad_form": quad_form(w, x),
        "bilinear_form": bilinear_form(w, x, pts),
        "log_mvn_density": log_mvn_density(w, x),
        "gamma_star": gamma_star(inst, pts),
        "entropy_lhs": entropy_lhs(inst, pts),
        "h_value": h_value(inst, full),
        "log_dirichlet_integrand": log_dirichlet_integrand(inst, pts),
        "log_dirichlet_integrand_full": log_dirichlet_integrand(inst, full),
        "log_gaussian_integrand": log_gaussian_integrand(inst, pts),
    }


def _hex_text(values):
    return ";".join(
        f"{name}:" + ",".join(float(v).hex() for v in np.ravel(value))
        for name, value in values.items()
    )


class TestFrozenBits:
    """The point functions keep every bit on a seeded batch, and a single
    point gives a float equal to its batch row."""

    @pytest.mark.parametrize("n, p, k", FROZEN_INSTANCES, ids=FROZEN_IDS)
    def test_batch_bits(self, n, p, k):
        inst = build_instance(n, p, k)
        text = _hex_text(_frozen_values(inst, *_frozen_batch(inst)))
        assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_DIGESTS[inst.d], text

    @pytest.mark.parametrize("n, p, k", FROZEN_INSTANCES, ids=FROZEN_IDS)
    def test_single_point_is_its_batch_row(self, n, p, k):
        inst = build_instance(n, p, k)
        batch = _frozen_batch(inst)
        values = _frozen_values(inst, *batch)
        for index in np.ndindex(2, 3):
            single = _frozen_values(inst, *(b[index] for b in batch))
            for name, value in single.items():
                assert type(value) is float, name
                assert value == values[name][index], name


def _interior(rng, inst):
    s = np.empty(inst.d)
    acc = 0.0
    for i in range(inst.d):
        upper = inst.weights.prefix[i] - acc
        s[i] = upper * rng.uniform(0.02, 0.98)
        acc += s[i]
    return s

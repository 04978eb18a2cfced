import ast
import math
import multiprocessing
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from mnsurv import quadrature
from mnsurv import (
    ChainFactors,
    CostGuardError,
    QuadratureSpec,
    build_instance,
    dirichlet_factors,
    expansion_context,
    gaussian_factors,
    integrate_chain,
    integrate_region,
    legendre_rule,
    log_dirichlet_integrand,
    log_gaussian_integrand,
    make_weights,
)
from mnsurv.checks import random_instance, random_weights
from mnsurv.model import WEIGHT_MARGIN


class TestLegendreRule:
    def test_two_point_rule(self):
        nodes, weights = legendre_rule(2)
        expected = np.array([(3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6])
        np.testing.assert_allclose(nodes, expected, atol=1e-15)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-15)

    def test_cubic_exact_with_two_points(self):
        nodes, weights = legendre_rule(2)
        assert math.fsum(weights * nodes**3) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("g", [2, 3, 5, 8, 16, 33, 48, 64, 127, 128])
    def test_weights_sum_to_one(self, g):
        nodes, weights = legendre_rule(g)
        assert nodes.shape == (g,)
        assert np.all((nodes > 0.0) & (nodes < 1.0))
        assert np.all(weights > 0.0)
        assert abs(math.fsum(weights.tolist()) - 1.0) <= 1e-15

    @pytest.mark.parametrize("g", [4, 10, 32, 64, 128])
    def test_matches_reference_rule(self, g):
        # numpy's eigenvalue-based generator is the independent oracle
        nodes, weights = legendre_rule(g)
        x_ref, w_ref = leggauss(g)
        np.testing.assert_allclose(nodes, (x_ref + 1) / 2, atol=2e-15)
        np.testing.assert_allclose(weights, w_ref / 2, atol=2e-15)

    @pytest.mark.parametrize("g", [3, 7, 20])
    def test_max_degree_exactness(self, g):
        nodes, weights = legendre_rule(g)
        degree = 2 * g - 1
        approx = math.fsum(weights * nodes**degree)
        assert approx == pytest.approx(1 / (degree + 1), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("g", [1, 0, 129])
    def test_node_count_bounds(self, g):
        with pytest.raises(ValueError):
            legendre_rule(g)


def _const_logf(s):
    return np.zeros(s.shape[0])


class TestIntegrateRegion:
    def test_interval_length(self):
        w = make_weights([0.3])
        value, logv = integrate_region(w, _const_logf, QuadratureSpec(nodes=8))
        assert value == pytest.approx(0.3, rel=1e-14, abs=0.0)
        assert logv == pytest.approx(math.log(0.3), rel=1e-14, abs=0.0)

    def test_planar_area(self):
        # {s >= 0, s1 <= 0.3, s1+s2 <= 0.6} has area 0.3*0.6 - 0.3^2/2
        w = make_weights([0.3, 0.3])
        value, _ = integrate_region(w, _const_logf, QuadratureSpec(nodes=8))
        assert value == pytest.approx(0.135, rel=1e-14, abs=0.0)

    def test_linear_integrand_closed_form(self):
        inst = build_instance(2, [0.5], [1])
        value, _ = integrate_region(
            inst.weights,
            lambda s: log_dirichlet_integrand(inst, s),
            QuadratureSpec(nodes=16),
        )
        assert abs(value - 0.75) <= 1e-12

    def test_shift_invariance(self):
        # adding c to the log-integrand adds c to the log of the integral,
        # also where exp(c) alone underflows or the integral overflows
        inst = build_instance(10, [0.3, 0.3], [2, 3])
        logf = lambda s: log_dirichlet_integrand(inst, s)
        spec = QuadratureSpec(nodes=24)
        _, base = integrate_region(inst.weights, logf, spec)
        for c in (-800.0, -3.5, 2.0, 700.0, 800.0):
            value, alt = integrate_region(inst.weights, lambda s: logf(s) + c, spec)
            assert abs(alt - (base + c)) <= 1e-14 * (abs(base) + abs(c))
            assert (value == math.inf) == (c == 800.0)

        # log-values spread over 1000 units, with the largest near s_1 = 0
        g = 64
        w = make_weights([0.2, 0.3, 0.2])
        value, log_value = integrate_region(w, lambda s: -5000.0 * s[:, 0], QuadratureSpec(nodes=g))
        pts, wts = _whole_tensor_nodes(w, g)
        logs = -5000.0 * pts[:, 0]
        top = float(logs.max())
        reference = top + math.log(math.fsum((wts * np.exp(logs - top)).tolist()))
        assert abs(log_value - reference) <= 1e-14 * abs(reference)
        assert value == pytest.approx(math.exp(reference), rel=1e-13, abs=0.0)

    def test_refinement_differences_shrink(self):
        # high-degree integrand so no rule in the sweep is already exact
        inst = build_instance(130, [0.3, 0.3], [30, 45])
        logf = lambda s: log_gaussian_integrand(inst, s)
        vals = {
            g: integrate_region(inst.weights, logf, QuadratureSpec(nodes=g))[0]
            for g in (8, 16, 32, 64, 128)
        }
        diffs = [abs(vals[g] - vals[2 * g]) for g in (8, 16, 32, 64)]
        for a, b in zip(diffs, diffs[1:]):
            assert b <= a + 1e-15

    def test_rejects_nonfinite_integrand(self):
        # the error names the first bad node in the order of the reference nodes
        x, _ = legendre_rule(48)
        cases = [
            (make_weights([0.4]), 8, lambda s: np.where(s[:, 0] > 0.2, np.nan, 0.0)),
            (make_weights([0.3, 0.2, 0.25]), 48,
             lambda s: np.where(s[:, 0] > 0.3 * x[-3], -np.inf, 0.0)),
        ]
        for w, g, bad in cases:
            with pytest.raises(ValueError, match="not finite") as info:
                integrate_region(w, bad, QuadratureSpec(nodes=g))
            named = ast.literal_eval(re.search(r"\[.*\]", str(info.value)).group(0))
            pts, _ = _whole_tensor_nodes(w, g)
            first_bad = pts[np.flatnonzero(~np.isfinite(bad(pts)))[0]]
            assert named == first_bad.tolist()

    def test_cost_guard(self):
        w = make_weights([0.15, 0.15, 0.15, 0.1, 0.1, 0.1])
        assert quadrature.MAX_NODE_EVALS == 10**6
        for g in (11, 128):  # 10^6 < 11^6
            with pytest.raises(CostGuardError):
                integrate_region(w, _const_logf, QuadratureSpec(nodes=g))

    def test_peak_memory_at_the_guard(self):
        # the largest d = 6 integrals the guard admits, 10^6 nodes: a volume,
        # and the survival integrand that allocates the most
        h = 0.14
        inst = build_instance(70, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], [7, 6, 9, 7, 6, 8])
        values = []
        for w, logf in ((make_weights([h] * 6), _const_logf),
                        (inst.weights, lambda s: log_gaussian_integrand(inst, s))):
            tracemalloc.start()
            try:
                value, _ = integrate_region(w, logf, QuadratureSpec(nodes=10))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 120e6  # the bound in integrate_region's docstring
            values.append(value)
        # equal prefix steps h: volume h^d (d+1)^(d-1) / d! (parking functions)
        assert values[0] == pytest.approx(h**6 * 7**5 / 720, rel=1e-13, abs=0.0)
        assert 0.0 < values[1] < 1.0


def _whole_tensor_nodes(weights, g):
    """Reference: all g**d nodes and weights, built at once axis by axis."""
    x, w = legendre_rule(g)
    pts = np.zeros((1, 0))
    wts = np.ones(1)
    for i in range(weights.d):
        m = pts.shape[0]
        upper = np.repeat(weights.prefix[i] - pts.sum(axis=1), g)
        pts = np.column_stack([np.repeat(pts, g, axis=0), upper * np.tile(x, m)])
        wts = np.repeat(wts, g) * upper * np.tile(w, m)
    return pts, wts


def _whole_tensor_integral(weights, logf, g):
    """Reference: all g**d nodes built at once and reduced by one fsum."""
    pts, wts = _whole_tensor_nodes(weights, g)
    shift = float(logf(weights.p.reshape(1, -1))[0])
    return math.fsum((wts * np.exp(logf(pts) - shift)).tolist()) * math.exp(shift)


class TestBlockedIntegration:
    """integrate_region against the whole-tensor reference built above."""

    @pytest.mark.parametrize(
        "n, p, k, g",
        [
            (60, [0.3, 0.2, 0.25], [15, 10, 12], 48),
            (50, [0.2, 0.25, 0.2, 0.15], [8, 10, 8, 6], 20),
        ],
    )
    def test_matches_whole_tensor_reference(self, n, p, k, g):
        inst = build_instance(n, p, k)
        for logf in (
            lambda s: log_dirichlet_integrand(inst, s),
            lambda s: log_gaussian_integrand(inst, s),
        ):
            value, _ = integrate_region(inst.weights, logf, QuadratureSpec(nodes=g))
            reference = _whole_tensor_integral(inst.weights, logf, g)
            assert abs(value - reference) <= 1e-14 * reference

    @pytest.mark.parametrize(
        "n, p, k, g",
        [
            (20, [0.3], [6], 36),
            (25, [0.3, 0.25], [6, 5], 36),
            (30, [0.3, 0.2, 0.25], [8, 5, 6], 48),
            (40, [0.2, 0.25, 0.2, 0.15], [6, 9, 7, 5], 20),
        ],
    )
    def test_nodes_match_whole_tensor_bit_for_bit(self, n, p, k, g):
        # logf runs once, on the calling thread, with every node as a row
        inst = build_instance(n, p, k)
        seen = []

        def logf(s):
            seen.append((threading.get_ident(), s.copy()))
            return log_dirichlet_integrand(inst, s)

        value, _ = integrate_region(inst.weights, logf, QuadratureSpec(nodes=g))
        reference, _ = _whole_tensor_nodes(inst.weights, g)
        assert len(seen) == 1
        thread, recorded = seen[0]
        assert thread == threading.get_ident()
        assert recorded.shape == reference.shape == (g**inst.d, inst.d)
        assert np.array_equal(recorded, reference)
        expected = _whole_tensor_integral(
            inst.weights, lambda s: log_dirichlet_integrand(inst, s), g
        )
        assert abs(value - expected) <= 1e-14 * expected

    def test_repeated_integral_is_bit_identical(self):
        inst = build_instance(50, [0.2, 0.25, 0.2, 0.15], [8, 10, 8, 6])
        spec = QuadratureSpec(nodes=20)
        for logf in (
            lambda s: log_dirichlet_integrand(inst, s),
            lambda s: log_gaussian_integrand(inst, s),
        ):
            first = integrate_region(inst.weights, logf, spec)
            assert integrate_region(inst.weights, logf, spec) == first


class TestMappedInterpolation:
    @pytest.mark.parametrize("g", [2, 5, 32, 64])
    def test_reproduces_polynomials_of_degree_below_g(self, g):
        x, _ = legendre_rule(g)
        matrix = quadrature.mapped_interpolation(g)
        assert matrix.shape == (g, g * g)
        coef = np.random.default_rng(g).normal(size=g)
        poly = np.polynomial.Polynomial(coef)
        expected = poly(np.multiply.outer(x, x).ravel())
        np.testing.assert_allclose(poly(x) @ matrix, expected, rtol=0, atol=1e-12)

    def test_columns_sum_to_one(self):
        np.testing.assert_allclose(quadrature.mapped_interpolation(64).sum(axis=0), 1.0,
                                   rtol=0, atol=1e-13)


def _zero_step(u, log_u):
    return np.zeros(np.shape(u))


class _Elementwise:
    """A factor with no parameter per row: every row is the same function."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        return self.fn(*args)

    def rows(self, index):
        return self


def _smooth(steps):
    """Factors of one row with no log singularity, a zero constant and a
    zero last cell."""
    return ChainFactors(np.zeros(1), tuple(_Elementwise(f) for f in [*steps, _zero_step]),
                        np.zeros((1, len(steps))))


def _chain(weights, factors, spec=None):
    """integrate_chain of a batch of one, as two floats."""
    values, logs = integrate_chain(weights.prefix[None], factors, spec)
    assert values.shape == logs.shape == (1,)
    return float(values[0]), float(logs[0])


def _dirichlet(inst):
    return dirichlet_factors([inst])


def _gaussian(inst):
    return gaussian_factors([expansion_context(inst)])


class TestIntegrateChain:
    @pytest.mark.parametrize("p, volume", [
        ([0.3], 0.3),
        ([0.3, 0.3], 0.135),
        ([0.2, 0.2, 0.2, 0.2], 0.2**4 * 5**3 / 24),  # parking functions, as above
    ], ids=["d1", "d2", "d4"])
    def test_volume(self, p, volume):
        w = make_weights(p)
        value, log_value = _chain(w, _smooth([_zero_step] * w.d))
        assert value == pytest.approx(volume, rel=1e-14, abs=0.0)
        assert log_value == pytest.approx(math.log(volume), rel=1e-14, abs=0.0)

    def test_smooth_factors_closed_form(self):
        # exp(-a T_1 - b (T_2 - T_1)) over 0 < T_1 < T_2, T_1 <= P_1, T_2 <= P_2
        a, b, p1, p2 = 3.0, 7.0, 0.3, 0.7
        w = make_weights([p1, p2 - p1])
        steps = [lambda u, log_u: -a * u, lambda u, log_u: -b * u]
        value, _ = _chain(w, _smooth(steps))
        closed = ((1 - math.exp(-a * p1)) / a
                  - math.exp(-b * p2) * (1 - math.exp(-(a - b) * p1)) / (a - b)) / b
        assert value == pytest.approx(closed, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n, p, k", [
        (20, [0.3], [6]),
        (41, [0.3, 0.25], [10, 8]),
        (60, [0.3, 0.2, 0.25], [15, 10, 12]),
        (63, [0.2, 0.3, 0.2], [5, 30, 20]),
    ])
    def test_matches_tensor_rule_where_it_is_exact(self, n, p, k):
        # n <= 2G - 1: G = 32 points per axis integrate the polynomial exactly
        inst = build_instance(n, p, k)
        spec = QuadratureSpec(nodes=32)
        for factors, logf in (
            (_dirichlet(inst), lambda s: log_dirichlet_integrand(inst, s)),
            (_gaussian(inst), lambda s: log_gaussian_integrand(inst, s)),
        ):
            tensor, _ = integrate_region(inst.weights, logf, spec)
            chain, _ = _chain(inst.weights, factors)
            assert chain == pytest.approx(tensor, rel=1e-13, abs=0.0)

    def test_matches_tensor_rule_on_random_small_instances(self):
        rng = np.random.default_rng(50)
        spec = QuadratureSpec(nodes=24)
        checked = 0
        while checked < 20:
            inst = random_instance(rng, n_range=(2, 48))
            if np.any(inst.k < 1) or inst.impossible:
                continue
            tensor, _ = integrate_region(
                inst.weights, lambda s: log_dirichlet_integrand(inst, s), spec)
            chain, _ = _chain(inst.weights, _dirichlet(inst))
            assert chain == pytest.approx(tensor, rel=1e-13, abs=0.0)
            checked += 1

    def test_cost_is_polynomial_in_nodes(self):
        # level i + 1 evaluates i (i + 3) / 2 blocks of G x G terms, the first
        # step G points and the end d G: 205,248 points at d = 6, G = 64,
        # against G^d = 6.9e10 for the tensor rule
        cases = [
            (1000, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], [110, 95, 140, 110, 90, 130],
             50 * 64**2 + 7 * 64),
            (600, [0.2, 0.25, 0.2, 0.15], [110, 140, 110, 80], 16 * 64**2 + 5 * 64),
        ]
        for n, p, k, points in cases:
            inst = build_instance(n, p, k)
            factors = _gaussian(inst)
            seen = []

            class Counted:
                def __init__(self, f):
                    self.f = f

                def __call__(self, *args):
                    seen.append(np.size(args[0]))
                    return self.f(*args)

                def rows(self, index):
                    return Counted(self.f.rows(index))

            counted_factors = factors._replace(steps=tuple(Counted(f) for f in factors.steps))
            value, _ = _chain(inst.weights, counted_factors, QuadratureSpec(nodes=64))
            assert 0.0 < value < 1.0
            assert sum(seen) == points

    def test_shift_invariance(self):
        inst = build_instance(300, [0.3, 0.3], [80, 100])
        f = _dirichlet(inst)
        _, base = _chain(inst.weights, f)
        for c in (-800.0, -3.5, 2.0, 700.0, 800.0):
            value, alt = _chain(inst.weights, f._replace(constant=f.constant + c))
            assert abs(alt - (base + c)) <= 1e-14 * (abs(base) + abs(c))
            # past e^709 the integral overflows, and its log does not
            assert math.isfinite(value) == (c < 800.0)

    def test_nodes_below_the_floor_use_the_floor(self):
        inst = build_instance(40, [0.3, 0.25], [10, 8])
        f = _dirichlet(inst)
        floor = QuadratureSpec(nodes=quadrature.MIN_PANEL_NODES)
        at_floor = _chain(inst.weights, f, floor)
        assert _chain(inst.weights, f, QuadratureSpec(nodes=2)) == at_floor
        assert _chain(inst.weights, f, QuadratureSpec(nodes=33)) != at_floor

    def test_rejects_wrong_number_of_steps(self):
        w = make_weights([0.3, 0.3])
        with pytest.raises(ValueError, match="step factors"):
            _chain(w, _smooth([_zero_step]))

    def test_rejects_factors_of_another_batch(self):
        a, b, c = (build_instance(20, [0.3, 0.2], k) for k in ([4, 3], [5, 3], [4, 5]))
        with pytest.raises(ValueError, match="prefix rows"):
            integrate_chain(a.weights.prefix[None], dirichlet_factors([a, b, c]))
        with pytest.raises(ValueError, match="prefix rows"):
            integrate_chain(np.array([a.weights.prefix] * 3), dirichlet_factors([a]))

    def test_rejects_nonfinite_factor(self):
        w = make_weights([0.3, 0.3])
        with pytest.raises(ValueError, match="not finite"):
            _chain(w, _smooth([_zero_step,
                                        lambda u, log_u: np.full(np.shape(u), np.nan)]))


def _prefix_at_margin(p):
    """The prefix sums of ``p`` after its largest weight is lowered so that
    the last cell holds ``WEIGHT_MARGIN``, to the ulp."""
    p = np.array(p, dtype=float)
    big = int(np.argmax(p))
    p[big] -= WEIGHT_MARGIN - (1.0 - float(p.sum()))
    while 1.0 - float(p.sum()) < WEIGHT_MARGIN:
        p[big] = np.nextafter(p[big], 0.0)
    return make_weights(p).prefix


class TestChainGrid:
    @pytest.mark.parametrize("g", [2, 32, 128])
    def test_masses_are_positive_with_finite_logs(self, g):
        # every cell factor meets a positive mass on the grid: the steps, the
        # nodes T and 1 - T, even with weights at the margin
        rng = np.random.default_rng(g)
        for d in range(1, 7):
            prefixes = [make_weights(random_weights(rng, d)).prefix,
                        make_weights([WEIGHT_MARGIN] * d).prefix,
                        _prefix_at_margin([WEIGHT_MARGIN] * (d - 1) + [1.0 - d * WEIGHT_MARGIN])]
            for _ in range(3):
                p = random_weights(rng, d)
                p[rng.random(d) < 0.5] = WEIGHT_MARGIN
                prefixes.append(make_weights(p).prefix)
                prefixes.append(_prefix_at_margin(p / p.sum()))
            for prefix in prefixes:
                grid = quadrature._chain_grid(prefix[None], g)
                for mass in (grid.t, 1.0 - grid.t, *grid.step):
                    assert (mass > 0.0).all()
                    assert np.isfinite(np.log(mass)).all()
                for logs in (grid.log_t, *grid.log_step, grid.log_node_weight,
                             grid.log_stretch_weight, grid.log_mapped):
                    assert np.isfinite(logs).all()

    @pytest.mark.parametrize("d, g", [(1, 32), (2, 32), (4, 40), (6, 64)])
    def test_chain_evaluations_count_the_grid_steps(self, d, g):
        grid = quadrature._chain_grid(np.cumsum(np.full((1, d), 0.9 / d), axis=1), g)
        assert quadrature.chain_evaluations(d, g) == sum(step[0].size for step in grid.step)

    def test_chain_evaluations_guard(self):
        assert quadrature.chain_evaluations(6, 128) == 819_200
        assert quadrature.chain_evaluations(22, 128) <= quadrature.MAX_CHAIN_EVALUATIONS
        assert quadrature.chain_evaluations(35, 64) <= quadrature.MAX_CHAIN_EVALUATIONS
        assert quadrature.chain_evaluations(57, 2) <= quadrature.MAX_CHAIN_EVALUATIONS
        for d, g in ((23, 128), (36, 64), (58, 2)):
            with pytest.raises(CostGuardError, match=f"d = {d}, G = {max(g, 32)}"):
                quadrature.chain_evaluations(d, g)


def _d3_g48_integral(logf):
    return integrate_region(make_weights([0.3, 0.2, 0.25]), logf, QuadratureSpec(nodes=48))


class TestCallers:
    """Callers on other threads or in a forked child get the same bits, and
    an exception from logf reaches the caller as it was raised."""

    def test_exception_from_logf_propagates(self):
        raised_on = []

        def failing(s):
            raised_on.append(threading.get_ident())
            raise ValueError("planted in logf")

        with pytest.raises(ValueError) as info:
            _d3_g48_integral(failing)
        assert type(info.value) is ValueError
        assert str(info.value) == "planted in logf"
        assert raised_on == [threading.get_ident()]

    def test_fork_child_integrates_after_parent(self):
        expected = _d3_g48_integral(_const_logf)  # the parent's caches now exist
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put(_d3_g48_integral(_const_logf)))
        child.start()
        try:
            assert results.get(timeout=60) == expected
            child.join(timeout=60)
            assert not child.is_alive()
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()

    def test_concurrent_callers_agree(self):
        # several callers and a short switch interval: state shared between
        # calls (cached rules and grids) must not leak from one to another
        inst = build_instance(60, [0.3, 0.2, 0.25], [15, 10, 12])
        spec = QuadratureSpec(nodes=48)
        logf = lambda s: log_dirichlet_integrand(inst, s)
        factors = _dirichlet(inst)
        both = lambda: (integrate_region(inst.weights, logf, spec),
                        _chain(inst.weights, factors, spec))
        expected = both()
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [
                threading.Thread(target=lambda: results.extend(both() for _ in range(3)))
                for _ in range(4)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 12


class TestSpecValidation:
    def test_rejects_nodes_out_of_range(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=1)
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=129)

    def test_rejects_non_integer_nodes(self):
        with pytest.raises(TypeError):
            QuadratureSpec(nodes=40.5)
        spec = QuadratureSpec(nodes=np.int64(40))
        assert type(spec.nodes) is int and spec.nodes == 40

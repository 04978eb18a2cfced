import dataclasses
import importlib.util
import itertools
import math
import pathlib
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnsurv import (
    CostGuardError,
    QuadratureSpec,
    build_instance,
    compare_batch,
    compare_routes,
    instance_with_weights,
    make_weights,
    survival_dirichlet,
    survival_exact,
    survival_gaussian,
    survival_mc,
)
from mnsurv import expansions, quadrature, survival
from mnsurv.checks import random_instance, random_weights
from oracles import binomial_tail, mc_target, survival_truth, wide_rows


def _compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def brute_force_survival(n, p, k):
    """Exact-rational sum of the multinomial pmf over every count vector of the event.

    The last cell gets ``1 - sum(p)`` exactly, where an instance stores it
    rounded to a float.
    """
    p_full = [Fraction(v) for v in p]
    p_full.append(1 - sum(p_full))
    kappa = list(itertools.accumulate(k))
    total = Fraction(0)
    for x in _compositions(n, len(p_full)):
        if all(s >= kap for s, kap in zip(itertools.accumulate(x), kappa)):
            term = Fraction(math.factorial(n))
            for xi, pi in zip(x, p_full):
                term *= pi**xi / math.factorial(xi)
            total += term
    return float(total)


def _bench_oracle():
    """``bench/oracle.py``, a scipy log-space recursion that shares no code with mnsurv."""
    pytest.importorskip("scipy")
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExact:
    def test_vacuous_thresholds(self):
        assert survival_exact(build_instance(5, [0.3, 0.3], [0, 0])) == 1.0

    def test_single_cell(self):
        inst = build_instance(2, [0.5], [1])
        assert survival_exact(inst) == pytest.approx(0.75, rel=1e-14, abs=0.0)

    def test_two_cells_one_active(self):
        inst = build_instance(2, [0.3, 0.3], [1, 0])
        assert survival_exact(inst) == pytest.approx(0.51, rel=1e-13, abs=0.0)

    def test_impossible(self):
        assert survival_exact(build_instance(2, [0.5], [5])) == 0.0

    def test_binomial_reduction_random(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            p = float(rng.uniform(0.05, 0.9))
            k = int(rng.integers(0, n + 2))
            inst = build_instance(n, [p], [k])
            oracle = binomial_tail(n, p, k)
            assert survival_exact(inst) == pytest.approx(oracle, rel=1e-12, abs=1e-300)

    def test_cost_guard(self):
        with pytest.raises(CostGuardError):
            survival_exact(build_instance(10_000, [0.2, 0.2, 0.2], [2, 2, 2]))

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 13))
            p = np.round(rng.dirichlet(np.full(d + 1, 2.0))[:d], 4)
            if p.min() < 0.01 or p.sum() > 0.99:
                continue
            k = [int(v) for v in rng.integers(0, n // d + 2, d)]
            truth = brute_force_survival(n, p.tolist(), k)
            value = survival_exact(build_instance(n, p, k))
            assert value == pytest.approx(truth, rel=1e-13, abs=0.0)

    def test_binomial_tail_at_n_1000(self):
        # Pascal's rule keeps these within a few ulps; pmf terms formed from
        # log-factorials near ln(1000!) ~ 5912 would be off by about 3e-13
        for p, k in [(0.7, 720), (0.9, 900)]:
            value = survival_exact(build_instance(1000, [p], [k]))
            assert value == pytest.approx(binomial_tail(1000, p, k), rel=1e-13, abs=0.0)

    def test_deep_tail_keeps_relative_accuracy(self):
        value = survival_exact(build_instance(300, [0.1], [150]))
        assert value < 1e-60
        assert value == pytest.approx(binomial_tail(300, 0.1, 150), rel=1e-13, abs=0.0)
        # P(S_1 >= 45, S_2 >= 78) at n = 80 is about 6e-52
        truth = brute_force_survival(80, [0.1, 0.1], [45, 33])
        assert truth < 1e-50
        value = survival_exact(build_instance(80, [0.1, 0.1], [45, 33]))
        assert value == pytest.approx(truth, rel=1e-13, abs=0.0)

    def test_d6_n1000_within_the_guard(self):
        inst = build_instance(1000, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14],
                              [110, 95, 140, 110, 90, 130])
        start = time.perf_counter()
        value = survival_exact(inst)
        elapsed = time.perf_counter() - start
        assert 0.0 < value < 1.0
        assert elapsed < 20.0  # about 0.1 s; the bound only catches a lost O(d n^2)

    @pytest.mark.parametrize("n, p, k", [
        (1000, [0.2, 0.3, 0.2], [180, 300, 200]),
        (700, [0.15, 0.2, 0.25, 0.1], [90, 150, 160, 80]),
        (400, [0.1, 0.2, 0.15, 0.2, 0.1], [50, 70, 60, 90, 50]),
        (1000, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], [110, 95, 140, 110, 90, 130]),
        (1000, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], [160, 95, 140, 110, 90, 130]),
    ])
    def test_matches_independent_recursion(self, n, p, k):
        truth = _bench_oracle().survival(n, p, k)
        assert truth > 1e-280
        assert survival_exact(build_instance(n, p, k)) == pytest.approx(truth, rel=1e-12, abs=0.0)


class TestDirichlet:
    def test_linear_case(self):
        inst = build_instance(2, [0.5], [1])
        assert abs(survival_dirichlet(inst, QuadratureSpec(nodes=16)) - 0.75) <= 1e-12

    def test_binomial_case(self):
        inst = build_instance(4, [0.5], [2])
        assert survival_dirichlet(inst, QuadratureSpec(nodes=16)) == pytest.approx(
            11 / 16, rel=1e-13, abs=0.0
        )

    def test_matches_enumeration(self):
        inst = build_instance(10, [0.3, 0.3], [2, 3])
        exact = survival_exact(inst)
        diri = survival_dirichlet(inst, QuadratureSpec(nodes=48))
        assert abs(diri - exact) / exact <= 1e-8

    def test_rejects_unreduced_thresholds(self):
        with pytest.raises(ValueError):
            survival_dirichlet(build_instance(5, [0.3, 0.3], [0, 2]))

    def test_impossible_short_circuit(self):
        assert survival_dirichlet(build_instance(2, [0.5], [5])) == 0.0

    def test_chain_cost_guard(self, monkeypatch):
        # (d-1) d (d+4) / 6 G^2 = 618,659,840 factor evaluations at d = 60, G = 128
        monkeypatch.setattr(quadrature, "_chain_grid", lambda *args: pytest.fail("built a grid"))
        inst = build_instance(100, [0.015] * 60, [1] * 60)
        with pytest.raises(CostGuardError, match=r"618659840 .* \(d = 60, G = 128\)"):
            survival_dirichlet(inst, QuadratureSpec(nodes=128))

    def test_minimal_sample_size(self):
        # n = d with all thresholds 1: constant integrand, still exact
        inst = build_instance(2, [0.3, 0.3], [1, 1])
        exact = survival_exact(inst)
        diri = survival_dirichlet(inst, QuadratureSpec(nodes=8))
        assert diri == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert exact == pytest.approx(0.27, rel=1e-12, abs=0.0)


class TestGaussian:
    def test_binomial_case(self):
        inst = build_instance(4, [0.5], [2])
        val = survival_gaussian(inst, QuadratureSpec(nodes=32))
        assert abs(val - 0.6875) / 0.6875 <= 1e-9

    def test_matches_enumeration(self):
        inst = build_instance(12, [0.3, 0.3], [3, 4])
        exact = survival_exact(inst)
        val = survival_gaussian(inst, QuadratureSpec(nodes=48))
        assert abs(val - exact) / exact <= 1e-6

    def test_matches_dirichlet_at_equal_nodes(self):
        rng = np.random.default_rng(42)
        spec = QuadratureSpec(nodes=24)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(3 * d, 30))
            raw = rng.gamma(2.0, size=d + 1)
            p = (0.6 * raw / raw.sum() + 0.4 / (d + 1))[:d]
            k = rng.integers(2, max(3, n // d), size=d)
            if k.sum() > n - 1:
                continue
            inst = build_instance(n, p, k)
            a = survival_dirichlet(inst, spec)
            b = survival_gaussian(inst, spec)
            assert abs(a - b) / max(a, b) <= 1e-9

    def test_inapplicable_raises(self):
        inst = build_instance(2, [0.5], [1])  # J_1 = 0
        with pytest.raises(ValueError, match="inapplicable"):
            survival_gaussian(inst)

    def test_impossible_short_circuit(self):
        assert survival_gaussian(build_instance(2, [0.5], [5])) == 0.0


# (n, p, k, replications, seed, estimate, stderr): values of an earlier
# release, which counted hits along the rows of the untransposed draws and
# held 4e6 uniforms per chunk (the fifth case spans several chunks then);
# the last three, of the release that counted along the transposed draws,
# span three chunks of 2000 replications, start with a zero threshold, and
# are impossible
FROZEN_MC = [
    (10, [0.3], [3], 2000, 1, "0x1.399999999999ap-1", "0x1.64f6a95486d30p-7"),
    (25, [0.3, 0.25], [6, 5], 5000, 7, "0x1.88ce703afb7e9p-1", "0x1.87b03b31b507cp-8"),
    (16, [0.2, 0.3, 0.2], [2, 0, 4], 3000, 11, "0x1.b851eb851eb85p-1", "0x1.9f2d218740d7dp-8"),
    (40, [0.1, 0.2, 0.15, 0.2], [3, 6, 5, 7], 4000, 3, "0x1.647ae147ae148p-1",
     "0x1.dc87cd64cc2e6p-8"),
    (100, [0.3, 0.3], [25, 30], 50000, 5, "0x1.99335d249e450p-1", "0x1.d59f33130dbaap-10"),
    (1000, [0.1, 0.15, 0.2, 0.1, 0.15, 0.1], [95, 150, 195, 100, 145, 100], 5000, 13,
     "0x1.b3d07c84b5dccp-2", "0x1.ca402132b9907p-8"),
    (8, [0.2, 0.3, 0.25], [0, 3, 4], 3000, 17, "0x1.78d4fdf3b645ap-2", "0x1.208469470f578p-7"),
    (10, [0.2, 0.3, 0.25], [4, 4, 4], 2000, 19, "0x0.0p+0", "0x0.0p+0"),
]


class TestMonteCarlo:
    def test_vacuous(self):
        est, se = survival_mc(build_instance(5, [0.3], [0]), 2000, 1)
        assert est == 1.0 and se == 0.0

    def test_impossible(self):
        est, se = survival_mc(build_instance(2, [0.5], [5]), 2000, 1)
        assert est == 0.0 and se == 0.0

    @pytest.mark.parametrize("k, value", [([0, 0], 1.0), ([0, 2_000_002], 0.0)])
    def test_no_draw_past_the_guard(self, monkeypatch, k, value):
        # neither event needs a sample, so the n guard does not apply
        monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew"))
        assert survival_mc(build_instance(2_000_001, [0.3, 0.2], k), 2000, 1) == (value, 0.0)

    def test_binomial_consistency(self):
        inst = build_instance(2, [0.5], [1])
        est, se = survival_mc(inst, 100_000, 314)
        assert abs(est - 0.75) <= 4 * se

    def test_deterministic(self):
        inst = build_instance(10, [0.3, 0.3], [2, 3])
        assert survival_mc(inst, 5000, 7) == survival_mc(inst, 5000, 7)

    @pytest.mark.pinned_bits
    @pytest.mark.parametrize("n, p, k, reps, seed, estimate, stderr", FROZEN_MC)
    def test_estimates_are_bit_identical(self, n, p, k, reps, seed, estimate, stderr):
        est, se = survival_mc(build_instance(n, p, k), reps, seed)
        assert (est.hex(), se.hex()) == (estimate, stderr)

    @pytest.mark.parametrize("n", [255, 256, 257, 300])
    def test_counts_near_n_on_either_side_of_the_byte_counts(self, n):
        # counts reach n - 1 and n, past a byte from n = 256 on
        inst = build_instance(n, [0.995, 0.004], [n - 3, 2])
        u = np.random.default_rng(5).random((1000, n))
        s1, s2 = (u <= 0.995).sum(axis=1), (u <= 0.999).sum(axis=1)
        hits = int(np.count_nonzero((s1 >= n - 3) & (s2 >= n - 1)))
        assert 0 < hits < 1000
        assert survival_mc(inst, 1000, 5)[0] == hits / 1000

    def test_rejects_small_replications(self):
        with pytest.raises(ValueError):
            survival_mc(build_instance(2, [0.5], [1]), 100, 1)

    def test_rejects_missing_seed(self):
        with pytest.raises(ValueError, match="seed"):
            survival_mc(build_instance(10, [0.3], [3]), 2000, None)

    def test_rejects_float_replications_and_seed(self):
        # refused with the other arguments, before the cost guard looks at n
        inst = build_instance(3_000_000, [0.3], [3])
        for reps, seed in ((2000.0, 1), (2000, 1.0)):
            with pytest.raises(TypeError, match="float"):
                survival_mc(inst, reps, seed)

    def test_peak_memory_is_two_chunks(self, monkeypatch):
        # the chunk being counted and the next one being drawn, never a copy
        monkeypatch.setattr(survival, "_MC_CHUNK_VALUES", 200_000)
        inst = build_instance(10_000, [0.3, 0.3], [2990, 3000])  # 20 replications a chunk
        survival_mc(build_instance(4, [0.5], [2]), 1000, 5)  # numpy.random imports lazily
        tracemalloc.start()
        try:
            survival_mc(inst, 1000, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * 200_000

    def test_panel_consistency(self):
        rng = np.random.default_rng(43)
        hits = total = 0
        for _ in range(20):
            inst = random_instance(rng, n_range=(2, 12))
            exact = survival_exact(inst)
            est, se = survival_mc(inst, 10**6, int(rng.integers(1, 2**31)))
            if se == 0.0:
                hits += est == pytest.approx(exact, abs=1e-12)
            else:
                hits += abs(est - exact) <= 4 * se
            total += 1
        assert hits >= 0.95 * total

    def test_counting_equals_order_statistics(self):
        # the two descriptions of the event coincide draw by draw
        rng = np.random.default_rng(46)
        inst = build_instance(9, [0.25, 0.3], [2, 5])
        prefix = inst.weights.prefix
        kappa = inst.kappa
        u = rng.random((500, inst.n))
        by_counting = np.ones(500, dtype=bool)
        for i in range(inst.d):
            by_counting &= np.count_nonzero(u <= prefix[i], axis=1) >= kappa[i]
        u_sorted = np.sort(u, axis=1)
        by_order_stats = np.ones(500, dtype=bool)
        for i in range(inst.d):
            if kappa[i] >= 1:
                by_order_stats &= u_sorted[:, kappa[i] - 1] <= prefix[i]
        np.testing.assert_array_equal(by_counting, by_order_stats)


class TestCompareRoutes:
    def test_full_report(self):
        inst = build_instance(10, [0.3, 0.3], [2, 3])
        report = compare_routes(inst, QuadratureSpec(nodes=48), replications=100_000, seed=11)
        assert report.max_rel_diff <= 1e-6
        assert report.gaussian is not None
        assert report.delta_n is not None and report.gamma_tilde is not None
        assert abs(report.mc.estimate - report.exact) <= 4 * report.mc.stderr
        for value in (report.exact, report.dirichlet, report.gaussian):
            assert -1e-12 <= value <= 1 + 1e-12

    def test_vacuous_thresholds(self):
        report = compare_routes(build_instance(6, [0.3, 0.3], [0, 0]))
        assert report.exact == report.dirichlet == report.gaussian == 1.0
        assert report.max_rel_diff == 0.0

    def test_impossible(self):
        report = compare_routes(build_instance(4, [0.5], [9]))
        assert report.exact == report.dirichlet == report.gaussian == 0.0

    @pytest.mark.parametrize("nodes", [16, 48])
    def test_near_certain_event_stays_in_unit_interval(self, nodes):
        # unclamped, the integral routes overshoot 1 by a few ulps here
        inst = build_instance(23, [0.2885, 0.3243, 0.2731], [0, 0, 2])
        report = compare_routes(inst, QuadratureSpec(nodes=nodes))
        for value in (report.exact, report.dirichlet, report.gaussian):
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("k", [[1, 1], [2, 2]])
    def test_integral_routes_stay_finite_far_from_the_mean(self, k):
        # the integrand's mode sits more than 709 above its value at p,
        # where a single shift by logf(p) overflows
        report = compare_routes(build_instance(1000, [0.3, 0.3], k))
        assert report.exact == 1.0
        for value in (report.dirichlet, report.gaussian):
            if value is not None:
                assert 0.0 <= value <= 1.0 and abs(value - report.exact) <= 1e-5
        assert 0.0 <= report.max_rel_diff <= 1e-5

    def test_reduction_is_internal(self):
        # zero thresholds are fine: routes see the reduced instance
        report = compare_routes(build_instance(10, [0.2, 0.3, 0.1], [2, 0, 3]))
        merged = compare_routes(build_instance(10, [0.2, 0.4], [2, 3]))
        assert report.exact == pytest.approx(merged.exact, rel=1e-13, abs=0.0)
        assert report.dirichlet == pytest.approx(merged.dirichlet, rel=1e-12, abs=0.0)

    def test_gaussian_inapplicable_is_reported(self):
        report = compare_routes(build_instance(10, [0.3, 0.3], [1, 3]))
        assert report.gaussian is None
        assert "J_i" in report.gaussian_reason
        assert report.exact is not None and report.dirichlet is not None
        assert report.max_rel_diff is not None  # exact vs dirichlet still compared

    def test_route_subset(self):
        report = compare_routes(
            build_instance(10, [0.3], [3]), routes=["exact", "dirichlet"]
        )
        assert report.gaussian is None and report.mc is None
        assert report.exact is not None and report.dirichlet is not None

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            compare_routes(build_instance(10, [0.3], [3]), routes=["exact", "bayes"])

    def test_a_string_of_routes_is_refused(self):
        # a str is an iterable of letters, which read as the routes 'e', 'x', ...
        with pytest.raises(TypeError, match="iterable of route names"):
            compare_routes(build_instance(10, [0.3], [3]), routes="exact")
        with pytest.raises(TypeError, match="iterable of route names"):
            compare_batch([build_instance(10, [0.3], [3])], routes="dirichlet")

    @pytest.mark.parametrize("spec", [40, "64", {"nodes": 64}])
    def test_spec_must_be_a_quadrature_spec(self, spec):
        with pytest.raises(TypeError, match="QuadratureSpec"):
            compare_routes(build_instance(10, [0.3], [3]), spec)
        with pytest.raises(TypeError, match="QuadratureSpec"):
            survival_dirichlet(build_instance(10, [0.3], [3]), spec)

    def test_one_delta_n_per_gaussian_instance(self, monkeypatch):
        calls = []
        original = survival.expansion_context
        monkeypatch.setattr(survival, "expansion_context", lambda inst: calls.append(inst) or original(inst))
        report = compare_routes(build_instance(12, [0.3, 0.3], [3, 4]), QuadratureSpec(nodes=8))
        assert report.gaussian is not None and len(calls) == 1
        assert report.delta_n == expansions.expansion_context(build_instance(12, [0.3, 0.3], [3, 4])).delta_n

    @pytest.mark.parametrize("routes", [None, ["exact", "dirichlet"]])
    def test_one_gamma_tilde_per_gaussian_instance(self, monkeypatch, routes):
        calls = []
        original = expansions.gamma_tilde
        for module in (expansions, survival):
            monkeypatch.setattr(module, "gamma_tilde", lambda inst: calls.append(inst) or original(inst))
        inst = build_instance(12, [0.3, 0.3], [3, 4])
        report = compare_routes(inst, QuadratureSpec(nodes=8), routes=routes)
        assert len(calls) == 1
        assert (report.gaussian is None) == (routes is not None)
        assert report.gamma_tilde == original(inst)
        assert report.delta_n == expansions.expansion_context(inst).delta_n

    def test_reduced_instance_is_built_only_when_cells_merge(self, monkeypatch):
        calls = []
        original = survival.build_instance
        monkeypatch.setattr(survival, "build_instance",
                            lambda *args: calls.append(args) or original(*args))
        compare_routes(build_instance(10, [0.2, 0.3, 0.1], [2, 1, 3]), QuadratureSpec(nodes=8))
        assert calls == []
        compare_routes(build_instance(10, [0.2, 0.3, 0.1], [2, 0, 3]), QuadratureSpec(nodes=8))
        assert len(calls) == 1

    def test_mc_needs_spec(self):
        inst = build_instance(10, [0.3], [3])
        with pytest.raises(ValueError):
            compare_routes(inst, routes=["mc"])
        with pytest.raises(ValueError):
            compare_routes(inst, replications=2000)
        with pytest.raises(ValueError):
            compare_routes(inst, replications=999, seed=1)


# (n, p, k, G, Dirichlet, Gaussian): values of the chain rule, each within
# 1e-14 of the exact route; G below MIN_PANEL_NODES uses 32 per panel
FROZEN_VALUES = [
    (20, [0.3], [6], 36, "0x1.2ad171510782fp-1", "0x1.2ad171510783bp-1"),
    (25, [0.3, 0.25], [6, 5], 24, "0x1.898d68420ac34p-1", "0x1.898d68420ac2bp-1"),
    (60, [0.3, 0.2, 0.25], [15, 10, 12], 48, "0x1.9d4eb2b4e5a3cp-1", "0x1.9d4eb2b4e5a43p-1"),
    (50, [0.2, 0.25, 0.2, 0.15], [8, 10, 8, 6], 20, "0x1.8b52d30f3f37fp-1",
     "0x1.8b52d30f3f383p-1"),
    (48, [0.2, 0.15, 0.25, 0.1], [9, 6, 11, 4], 32, "0x1.0da0aea7e5698p-1",
     "0x1.0da0aea7e5686p-1"),
    (40, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], [4, 3, 5, 4, 3, 5], 6, "0x1.357e9986c6955p-1",
     "0x1.357e9986c694ap-1"),
]


def _report_bits(report):
    """A report with every float written as its hex digits."""
    def bits(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(bits(v) for v in value)
        return value
    return tuple(bits(getattr(report, f.name)) for f in dataclasses.fields(report))


# weights every row of one d may share
_SHARED_P = {d: np.round(random_weights(np.random.default_rng(d), d), 4) for d in range(1, 7)}


@st.composite
def _batch_rows(draw):
    """A row: d = 1..6, shared or own weights, and thresholds near the mean,
    with J_i = 0 cells, with zeros that merge cells, or in the far tail."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(d + 1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    p = _SHARED_P[d] if draw(st.booleans()) else np.round(random_weights(rng, d), 4)
    kind = draw(st.sampled_from(["mean", "unit", "zero", "tail"]))
    k = np.maximum(1, np.round(0.9 * n * p)).astype(int)
    if kind == "unit":
        k[rng.random(d) < 0.5] = 1  # J_i = 0
    elif kind == "zero":
        k[rng.random(d) < 0.5] = 0
    elif kind == "tail":
        k = np.round(1.6 * n * p).astype(int) + 1
    return build_instance(n, p, k.tolist())


def _mc_key(inst):
    target = mc_target(inst)
    return target.n, tuple(target.weights.prefix.tolist())


class _CountingRng:
    """``numpy.random.default_rng`` whose generators count their draws."""

    def __init__(self):
        self.draws = 0
        self._default_rng = np.random.default_rng

    def __call__(self, seed):
        rng, outer = self._default_rng(seed), self

        class Counted:
            def random(self, size):
                outer.draws += 1
                return rng.random(size)

        return Counted()


class TestCompareBatch:
    """Each row of a batch is bit for bit its own batch of one, but for the
    seed of its Monte Carlo sample."""

    @pytest.mark.parametrize("budget", [quadrature._CHUNK_ELEMENTS, 1], ids=["chunks", "row-chunks"])
    @given(rows=st.lists(_batch_rows(), min_size=1, max_size=8),
           nodes=st.sampled_from([16, quadrature.MIN_PANEL_NODES, 40]))
    @settings(max_examples=25, deadline=None)
    def test_rows_match_their_batch_of_one(self, budget, rows, nodes):
        spec = QuadratureSpec(nodes=nodes)
        with mock.patch.object(quadrature, "_CHUNK_ELEMENTS", budget):
            reports = compare_batch(rows, spec, replications=1000, seed=9)
            assert len(reports) == len(rows)
            first = {}  # (n, prefix sums) of a Monte Carlo target -> its first row
            for idx, (inst, report) in enumerate(zip(rows, reports)):
                assert report.mc.seed == 9 + first.setdefault(_mc_key(inst), idx)
                alone = compare_routes(inst, spec, replications=1000, seed=report.mc.seed)
                assert _report_bits(report) == _report_bits(alone)

    def test_empty_batch(self):
        assert compare_batch([]) == []

    def test_one_chain_call_per_route_and_dimension(self, monkeypatch):
        calls = []
        original = survival._integrate_chains
        monkeypatch.setattr(
            survival, "_integrate_chains",
            lambda prefix, sets, spec: calls.append((len(prefix), len(sets))) or original(prefix, sets, spec),
        )
        rows = [build_instance(20, [0.3], [5]), build_instance(20, [0.3, 0.3], [5, 5]),
                build_instance(24, [0.25], [6]), build_instance(20, [0.3, 0.3], [1, 5]),
                build_instance(20, [0.3, 0.3, 0.2], [0, 5, 0])]  # reduces to d = 1
        compare_batch(rows, QuadratureSpec(nodes=32))
        # (rows, routes): d = 1, three Gaussian-ready rows with both routes; d = 2,
        # the Gaussian-ready row with both, the other with the Dirichlet route alone
        assert calls == [(3, 2), (1, 2), (1, 1)]

    def test_rows_of_one_weight_vector_share_one_grid(self, monkeypatch):
        built = []
        original = quadrature._chain_grid
        monkeypatch.setattr(quadrature, "_chain_grid",
                            lambda prefix, g: built.append(prefix.shape) or original(prefix, g))
        quadrature._shared_chain_grid.cache_clear()
        p = [0.3, 0.25, 0.2]
        rows = [build_instance(n, p, [a, 4, 3]) for n in (20, 30) for a in range(2, 30)]
        compare_batch(rows, QuadratureSpec(nodes=32))
        assert built == [(1, 3)]  # one grid, built once for both routes

    def test_mixed_chunk_between_chunks_of_one_prefix(self, monkeypatch):
        # d = 3 at G = 32 goes 36 rows a chunk: prefix a, then a and b alternating, then a again
        built = []
        original = quadrature._chain_grid
        monkeypatch.setattr(quadrature, "_chain_grid",
                            lambda prefix, g: built.append(prefix.shape) or original(prefix, g))
        quadrature._shared_chain_grid.cache_clear()
        spec = QuadratureSpec(nodes=32)
        a, b = [0.3, 0.25, 0.2], [0.2, 0.3, 0.25]
        shared = [build_instance(n, a, [3, k, 3]) for n in (40, 50) for k in range(2, 20)]
        mixed = [build_instance(45, p, [3, k, 3]) for k in range(2, 20) for p in (a, b)]
        rows = shared + mixed + shared
        reports = compare_batch(rows, spec)
        # the mixed chunk's grid is built once for both routes; the shared one once and kept
        assert built == [(1, 3), (36, 3)]
        for inst, report in zip(rows, reports):
            assert _report_bits(report) == _report_bits(compare_routes(inst, spec))

    def test_wide_rows_of_two_prefixes_build_a_grid_per_change(self, monkeypatch):
        built = []
        original = quadrature._chain_grid
        monkeypatch.setattr(quadrature, "_chain_grid",
                            lambda prefix, g: built.append(prefix.shape) or original(prefix, g))
        quadrature._shared_chain_grid.cache_clear()
        spec = QuadratureSpec(nodes=64)
        a, b = [0.1] * 8, [0.11] * 4 + [0.09] * 4
        rows = [build_instance(200, p, [17] * 8) for p in (a, b, a)]
        reports = compare_batch(rows, spec, routes=["dirichlet"])
        assert built == [(1, 8)] * 3
        assert quadrature._shared_chain_grid.cache_info().currsize == 0
        for inst, report in zip(rows, reports):
            alone = compare_routes(inst, spec, routes=["dirichlet"])
            assert _report_bits(report) == _report_bits(alone)

    def test_wide_rows_leave_no_grid_alive(self):
        # d = 8 at G = 64 is past _CHUNK_ELEMENTS, so every row is a chunk
        spec = QuadratureSpec(nodes=64)
        rng = np.random.default_rng(8)
        rows = [build_instance(200, np.round(random_weights(rng, 8), 4), [15] * 8)
                for _ in range(9)]
        compare_batch(rows[:1], spec, routes=["dirichlet"])  # the rule's own caches
        tracemalloc.start()
        try:
            compare_batch(rows[1:], spec, routes=["dirichlet"])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2e6

    def test_wide_rows_of_one_weight_vector_build_one_grid(self, monkeypatch):
        built = []
        original = quadrature._chain_grid
        monkeypatch.setattr(quadrature, "_chain_grid",
                            lambda prefix, g: built.append(prefix.shape) or original(prefix, g))
        quadrature._shared_chain_grid.cache_clear()
        spec = QuadratureSpec(nodes=64)
        rows = [build_instance(200, [0.1] * 8, [k] * 8) for k in (17, 18, 19)]
        reports = compare_batch(rows, spec)
        assert built == [(1, 8)]  # one grid for both routes
        assert quadrature._shared_chain_grid.cache_info().currsize == 0
        for inst, report in zip(rows, reports):
            assert _report_bits(report) == _report_bits(compare_routes(inst, spec))

    def test_earliest_failing_row_raises(self):
        ok = build_instance(10, [0.3], [3])
        first = build_instance(3_000_000, [0.5], [1])  # exact route refused
        later = build_instance(20_000, [0.5], [1])
        with pytest.raises(CostGuardError, match="n = 3000000"):
            compare_batch([ok, first, later])

    def test_chain_cost_guard_applies_to_integral_routes_only(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_chain_grid", lambda *args: pytest.fail("built a grid"))
        wide = build_instance(100, [0.015] * 60, [1] * 60)  # J_i = 0: not Gaussian-ready
        with pytest.raises(CostGuardError, match="chain rule"):
            compare_batch([build_instance(10, [0.3], [3]), wide])
        exact, gaussian = (compare_batch([wide], routes=[route])[0] for route in ("exact", "gaussian"))
        assert 0.0 < exact.exact < 1.0
        assert gaussian.gaussian is None and gaussian.gaussian_reason == "J_i = 0"

    def test_rows_of_one_sample_are_their_own_survival_mc(self):
        p = [0.3, 0.25]
        rows = [
            build_instance(12, p, [3, 4]),
            build_instance(10, p, [3, 4]),
            build_instance(12, p, [2, 5]),
            build_instance(12, [0.3, 0.25, 0.2], [2, 5, 0]),  # reduces to the rows above
            build_instance(12, p, [8, 8]),  # impossible
            build_instance(10, p, [4, 4]),
            build_instance(12, p, [1, 1]),
        ]
        reports = compare_batch(rows, routes=["mc"], replications=2000, seed=40)
        assert [report.mc.seed for report in reports] == [40, 41, 40, 40, 40, 41, 40]
        for inst, report in zip(rows, reports):
            est, se = survival_mc(mc_target(inst), 2000, report.mc.seed)
            assert (report.mc.estimate.hex(), report.mc.stderr.hex()) == (est.hex(), se.hex())

    def test_one_draw_per_chunk_of_each_shared_sample(self, monkeypatch):
        rng = _CountingRng()
        monkeypatch.setattr(np.random, "default_rng", rng)
        rows = [build_instance(n, [0.3, 0.25], [a, 2]) for n in (9, 11) for a in range(1, 6)]
        compare_batch(rows, routes=["mc"], replications=1000, seed=1)
        assert rng.draws == 2
        monkeypatch.setattr(survival, "_MC_CHUNK_VALUES", 4000)  # 444 and 363 a chunk
        rng.draws = 0
        compare_batch(rows, routes=["mc"], replications=1000, seed=1)
        assert rng.draws == 3 + 3

    def test_no_sample_before_every_row_passes_its_guard(self, monkeypatch):
        rng = _CountingRng()
        monkeypatch.setattr(np.random, "default_rng", rng)

        def rows():
            yield build_instance(10, [0.3], [3])
            yield build_instance(10, [0.3], [4])
            yield build_instance(3_000_000, [0.5], [1])  # past the Monte Carlo guard
            pytest.fail("row 3 was consumed")

        with pytest.raises(CostGuardError, match="Monte Carlo needs n <= 2000000, got n = 3000000"):
            compare_batch(rows(), routes=["mc"], replications=1000, seed=1)
        assert rng.draws == 0

    def test_instances_are_consumed_in_order(self):
        def rows():
            yield build_instance(5000, [0.5], [1])  # 8 (n+1)^2 bytes exceed the guard
            raise ValueError("a later row")

        with pytest.raises(CostGuardError):
            compare_batch(rows(), routes=["exact"])


def _exact_panel(rng):
    """Seeded rows at d = 1..6, n = 4..300: near the mean, zero thresholds,
    impossible and vacuous rows, and deep tails up to 25 sd above the mean
    of each S_i, so that the binary exponents differ per row; a third of
    the (n, p) repeat with other thresholds."""
    rows = []
    while len(rows) < 240:
        d = int(rng.integers(1, 7))
        n = int(rng.choice([4, 17, 60, 150, 300])) if rng.random() < 0.7 else int(rng.integers(4, 301))
        p = np.round(random_weights(rng, d), 4)
        prefix = np.cumsum(p)
        sd = np.sqrt(n * prefix * (1.0 - prefix))
        for _ in range(int(rng.integers(1, 5)) if rng.random() < 0.35 else 1):
            kind = rng.integers(5)
            if kind == 0:  # zero thresholds, sometimes all of them
                k = rng.integers(0, n // d + 2, d) * (rng.random(d) < 0.6)
            elif kind == 1:  # impossible
                k = np.full(d, n // d + 1)
            else:
                z = rng.uniform(0.0, 25.0, d) if kind == 2 else rng.uniform(-3.0, 1.0, d)
                kappa = np.clip(np.round(n * prefix + z * sd), 0, n)
                k = np.diff(np.maximum.accumulate(kappa), prepend=0)
            rows.append(build_instance(n, p, k.astype(int)))
    return rows


@pytest.mark.pinned_bits
class TestGroupedExact:
    """The exact route runs once per group of rows of one reduced (n, d)."""

    @pytest.mark.parametrize("budget", [survival._EXACT_CHUNK_ENTRIES, 1], ids=["chunks", "one-each"])
    def test_rows_match_survival_exact(self, monkeypatch, budget):
        rows = _exact_panel(np.random.default_rng(70))
        # a batch runs the exact route on the reduced instance (mc_target)
        expected = [survival_exact(mc_target(inst)).hex() for inst in rows]
        assert len({(inst.n, inst.d) for inst in rows}) < len(rows)  # groups of several rows
        assert any(0.0 < float.fromhex(value) < 1e-30 for value in expected)
        assert {0.0, 1.0} <= {float.fromhex(value) for value in expected}
        monkeypatch.setattr(survival, "_EXACT_CHUNK_ENTRIES", budget)
        reports = compare_batch(rows, routes=["exact"])
        assert [report.exact.hex() for report in reports] == expected

    def test_sweep_over_several_row_chunks_builds_its_matrices_once(self, monkeypatch):
        builds, chunks = [], []
        build, recursion = survival._transition_matrices, survival._exact_recursion
        monkeypatch.setattr(survival, "_transition_matrices",
                            lambda n, p_full: builds.append((n, p_full.shape[0])) or build(n, p_full))
        monkeypatch.setattr(survival, "_exact_recursion",
                            lambda mats, kappa: chunks.append(len(kappa)) or recursion(mats, kappa))
        weights = make_weights([0.3, 0.25])
        rows = [instance_with_weights(120, weights, (a, b - a))
                for a, b in itertools.combinations(range(1, 121), 2)]
        reports = compare_batch(rows, routes=["exact"])
        assert builds == [(120, 1)]
        assert len(chunks) >= 3 and sum(chunks) == len(rows) == math.comb(120, 2)
        for idx in (0, 2000, 4000, len(rows) - 1):  # one row of each chunk
            assert reports[idx].exact.hex() == survival_exact(rows[idx]).hex()

    def test_guard_raises_at_its_row_before_any_build(self, monkeypatch):
        monkeypatch.setattr(survival, "_transition_matrices",
                            lambda *args: pytest.fail("built transition matrices"))

        def rows():
            yield build_instance(10, [0.3], [3])
            yield build_instance(12, [0.3, 0.2], [3, 2])
            yield build_instance(5000, [0.5], [1])  # 8 (n+1)^2 bytes exceed the guard
            pytest.fail("row 3 was consumed")

        with pytest.raises(CostGuardError, match="n = 5000"):
            compare_batch(rows(), routes=["exact"])

    def test_distinct_weights_hold_one_instance_of_matrices_at_a_time(self):
        k = [200, 300, 200]
        rows = [build_instance(1000, p, k) for p in
                ([0.2, 0.3, 0.2], [0.25, 0.25, 0.2], [0.2, 0.35, 0.15])]
        peaks = []
        for batch in (rows[:1], rows):
            tracemalloc.start()
            try:
                compare_batch(batch, routes=["exact"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] > 8 * 3 * 1001**2  # one instance's matrices
        assert peaks[1] <= 1.2 * peaks[0]


def _k_all_rows(p, ns):
    """The rows of ``sweep --k-all`` over ``ns`` with weights ``p``, in its order."""
    weights = make_weights(p)
    return [instance_with_weights(n, weights, [b - a for a, b in zip((0,) + kappa, kappa)])
            for n in ns for kappa in itertools.combinations(range(1, n + 1), len(p))]


def _bench_panels(monkeypatch):
    """``bench/panels.py``, the benchmark's seeded workload panels, imported
    for the test alone (its dataclasses look their module up)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "panels.py"
    spec = importlib.util.spec_from_file_location("bench_panels", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.pinned_bits
class TestSharedLevels:
    """On a one-row grid, rows compute each level once per distinct prefix of
    cell parameters and each cell factor once per distinct parameter row,
    and each row stays bit for bit its batch of one."""

    ROUTES = ["dirichlet", "gaussian"]
    # name: (rows, whether a chunk shares levels)
    BATCHES = {
        # sweep --k-all on one p over two n, with ready and not-ready rows
        "k-all-d2": (lambda: _k_all_rows([0.3, 0.25], (10, 16)), True),
        "k-all-d3": (lambda: _k_all_rows([0.3, 0.25, 0.2], (8, 11)), True),
        "k-all-d4": (lambda: _k_all_rows([0.2, 0.25, 0.2, 0.15], (9, 10)), True),
        # sweep --n at fixed k: the Dirichlet rows differ in the last cell alone
        "n-sweep": (lambda: [build_instance(n, [0.3, 0.25, 0.2], [3, 4, 5])
                             for n in range(13, 60)], True),
        # one p, but no two rows share the first cell
        "no-shared-cell": (lambda: [build_instance(40, [0.3, 0.25, 0.2], [a, 3, 2])
                                    for a in range(2, 20)], False),
    }

    @pytest.mark.parametrize("budget", [quadrature._CHUNK_ELEMENTS, 1], ids=["chunks", "row-chunks"])
    @pytest.mark.parametrize("batch", list(BATCHES))
    def test_rows_match_their_batch_of_one(self, monkeypatch, budget, batch):
        make_rows, shares = self.BATCHES[batch]
        rows = make_rows()
        if batch.startswith("k-all"):
            assert {inst.gaussian_block_reason is None for inst in rows} == {True, False}
        plans = []
        shared_levels = quadrature._shared_levels
        monkeypatch.setattr(quadrature, "_shared_levels",
                            lambda factors: plans.append(shared_levels(factors)) or plans[-1])
        monkeypatch.setattr(quadrature, "_CHUNK_ELEMENTS", budget)
        spec = QuadratureSpec(nodes=32)
        reports = compare_batch(rows, spec, routes=self.ROUTES)
        if budget == 1:
            assert plans == []  # a chunk of one row runs alone
        else:
            assert plans and any(plan is not None for plan in plans) == shares
        if batch == "n-sweep":
            # the Dirichlet rows share every level: one prefix of cells 1..d
            assert any(plan is not None and len(plan[1][-1].first) == 1 for plan in plans) == (budget > 1)
        for inst, report in zip(rows, reports):
            alone = compare_routes(inst, spec, routes=self.ROUTES)
            assert _report_bits(report) == _report_bits(alone)

    def test_sweep_runs_each_factor_and_level_once_per_distinct_row(self, monkeypatch, tmp_path):
        from mnsurv import cli

        op = _bench_panels(monkeypatch).build("cli-batch", 1).ops[0]
        assert op.name == "sweep-d2"
        chunks = []  # per _chain_logs call: its factors, the rows of each cell call and interpolation
        chain_logs, interpolate = quadrature._chain_logs, quadrature._interpolate
        monkeypatch.setattr(quadrature, "_chain_logs", lambda grid, factors, g: chunks.append(
            (factors, [], [])) or chain_logs(grid, factors, g))
        monkeypatch.setattr(quadrature, "_interpolate", lambda logs, g: chunks[-1][2].append(
            len(logs)) or interpolate(logs, g))
        for cell in (expansions._PowerCell, expansions._GaussianCell):
            def counted(self, u, log_u, call=cell.__call__):
                chunks[-1][1].append(len(self.j))
                return call(self, u, log_u)
            monkeypatch.setattr(cell, "__call__", counted)
        assert cli.run(list(op.argv) + ["--out", str(tmp_path / op.out)]) == 0

        runs = evaluated = 0
        for factors, cells, interpolated in chunks:
            count, d = factors.powers.shape
            # each row's parameters of cells 1..d, bit for bit, with their powers
            keys = [[tuple(np.asarray(column)[r].tobytes() for column in step)
                     + (factors.powers[r, i].tobytes(),) for r in range(count)]
                    for i, step in enumerate(factors.steps[:d])]
            distinct = [len(set(key)) for key in keys]
            prefixes = [len(set(zip(*keys[: i + 1]))) for i in range(d)]
            if distinct[0] == count:  # no two rows share the first cell: each runs alone
                distinct = prefixes = [count] * d
            assert cells == distinct + [count]  # the last cell runs on every row
            assert interpolated == prefixes[: d - 1]
            runs += count * (d + 1)
            evaluated += sum(cells)
        assert {len(factors.steps) for factors, _, _ in chunks} == {3}
        assert evaluated < 0.6 * runs


@pytest.mark.pinned_bits
class TestFrozenValues:
    @pytest.mark.parametrize("n, p, k, g, dirichlet, gaussian", FROZEN_VALUES)
    def test_integral_routes_are_bit_identical(self, n, p, k, g, dirichlet, gaussian):
        inst = build_instance(n, p, k)
        spec = QuadratureSpec(nodes=g)
        assert survival_dirichlet(inst, spec).hex() == dirichlet
        assert survival_gaussian(inst, spec).hex() == gaussian
        exact = survival_exact(inst)
        for value in (dirichlet, gaussian):
            assert float.fromhex(value) == pytest.approx(exact, rel=1e-13, abs=0.0)


# d = 1..6, n up to 1000, thresholds near the mean and in tails down to 1e-37
CHAIN_PANEL = [
    (1000, [0.3], [290]),
    (1000, [0.3], [420]),  # 6e-16
    (800, [0.25, 0.3], [190, 250]),
    (600, [0.2, 0.3], [200, 250]),  # 1.5e-37
    (1000, [0.2, 0.3, 0.2], [180, 300, 200]),
    (600, [0.2, 0.3, 0.2], [190, 150, 100]),  # 6e-12
    (700, [0.15, 0.2, 0.25, 0.1], [90, 150, 160, 80]),
    (400, [0.1, 0.2, 0.15, 0.2, 0.1], [50, 70, 60, 90, 50]),
    (1000, [0.15] * 5, [145] * 5),
    (1000, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], [110, 95, 140, 110, 90, 130]),
    (1000, [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], [160, 95, 140, 110, 90, 130]),
    (900, [0.1, 0.1, 0.15, 0.15, 0.1, 0.1], [140, 120, 150, 150, 90, 80]),  # 2e-21
]


def _dirichlet_bound(n):
    """The Dirichlet route's stated accuracy: its integrand is O(1) left over
    from terms of size ln(n!), so allow 4 n eps beyond 1e-12."""
    return max(1e-12, 4 * n * np.finfo(float).eps)


class TestChainAccuracy:
    @pytest.mark.parametrize("n, p, k", CHAIN_PANEL)
    def test_default_nodes_against_exact(self, n, p, k):
        inst = build_instance(n, p, k)
        exact = survival_exact(inst)
        assert exact > 0.0
        assert survival_gaussian(inst) == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert survival_dirichlet(inst) == pytest.approx(exact, rel=_dirichlet_bound(n), abs=0.0)

    def test_random_large_n_against_exact(self):
        # thresholds from 4 sd below to 1 sd above the mean of each S_i
        rng = np.random.default_rng(49)
        checked = 0
        while checked < 30:
            d = int(rng.integers(2, 7))
            n = int(rng.integers(50, 1001))
            p = random_weights(rng, d)
            prefix = np.cumsum(p)
            z = rng.uniform(-4.0, 1.0, d)
            kappa = np.round(n * prefix + z * np.sqrt(n * prefix * (1.0 - prefix))).astype(int)
            k = np.maximum(np.diff(np.concatenate(([0], np.maximum.accumulate(kappa)))), 2)
            if k.sum() > n - 1:
                continue
            inst = build_instance(n, p, k)
            exact = survival_exact(inst)
            assert survival_gaussian(inst) == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert survival_dirichlet(inst) == pytest.approx(
                exact, rel=_dirichlet_bound(n), abs=0.0
            )
            checked += 1

    def test_wide_d_against_exact(self):
        # the scope in d that README states: two rows each of d = 8-20
        rows = wide_rows()
        quadrature._shared_chain_grid.cache_clear()
        for inst, report in zip(rows, compare_batch(rows)):
            exact = survival_exact(inst)
            assert report.dirichlet == pytest.approx(exact, rel=1e-11, abs=0.0)
            assert report.gaussian == pytest.approx(exact, rel=1e-11, abs=0.0)
        assert quadrature._shared_chain_grid.cache_info().currsize == 0  # none kept

    def test_small_n_panels_at_any_node_count(self):
        # --nodes 2..32 all mean 32 per panel: same bits, within 1e-13
        rng = np.random.default_rng(48)
        for _ in range(200):
            inst = random_instance(rng, n_range=(2, 41))
            base = compare_routes(inst, QuadratureSpec(nodes=2))
            for nodes in (10, 16, 24):
                report = compare_routes(inst, QuadratureSpec(nodes=nodes))
                assert (report.dirichlet, report.gaussian) == (base.dirichlet, base.gaussian)
            for value in (base.dirichlet, base.gaussian):
                if value is not None:
                    assert value == pytest.approx(base.exact, rel=1e-13, abs=0.0)

    def test_d5_at_n_100_runs_at_default_nodes(self):
        # G^d tensor rules refused d >= 5 at the default node count
        inst = build_instance(100, [0.15] * 5, [10] * 5)
        report = compare_routes(inst)
        assert report.nodes == 64
        assert report.max_rel_diff <= 1e-13


def _truth_panel():
    """Four rows of each d = 1..6: near the mean and in a deep tail, each at
    n = 100 and 300.  A near-mean row's thresholds sit 0-1.5 sd below their
    means; a deep-tail row puts 0.3 of the weight on the first d cells and
    asks for 0.9 n counts there, which at n = 300 is about 1e-100."""
    rng = np.random.default_rng(2026)
    rows = []
    for d in range(1, 7):
        for n in (100, 300):
            p = rng.uniform(0.3, 0.9) * rng.dirichlet(np.full(d, 4.0))
            k = np.floor(n * p - rng.uniform(0.0, 1.5, d) * np.sqrt(n * p))
            rows.append((n, p.tolist(), np.maximum(k, 2).astype(int).tolist()))
            p = 0.3 * rng.dirichlet(np.full(d, 4.0))
            k = np.floor(0.9 * n * p / p.sum())
            rows.append((n, p.tolist(), np.maximum(k, 2).astype(int).tolist()))
    return rows


TRUTH_PANEL = _truth_panel()

# Relative bounds against the 40-digit truth.  The exact route's error grows
# about linearly in n (its matrices are built one trial at a time): the
# panel's largest error per trial was 2.3e-16 (d = 4, n = 300, 6.8e-14).
# The worst integral errors were 4.4e-14 (Dirichlet) and 1.2e-13 (Gaussian,
# d = 6 at 3e-102).  Each bound is at least 4x the worst measured error.
TRUTH_BOUNDS = {
    "exact": lambda n: 1e-15 * n,
    "dirichlet": lambda n: 2e-13,
    "gaussian": lambda n: 5e-13,
}


class TestGroundTruth:
    """Each deterministic route against ``oracles.survival_truth``, the
    sequential-binomial recursion in mpmath at 40 digits."""

    def test_truth_matches_scipy_at_d_1(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rows = [(n, p, k) for n, p, k in TRUTH_PANEL if len(p) == 1]
        for n, p, k in rows + [(50, [0.2], [3]), (1000, [0.3], [250])]:
            truth = survival_truth(n, p, k)
            assert float(truth) == pytest.approx(scipy_stats.binom.sf(k[0] - 1, n, p[0]),
                                                 rel=1e-14, abs=0.0)

    def test_truth_matches_exact_rationals(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 13))
            p = np.round(rng.dirichlet(np.full(d + 1, 2.0))[:d], 4)
            if p.min() < 0.01 or p.sum() > 0.99:
                continue
            k = [int(v) for v in rng.integers(0, n // d + 2, d)]
            truth = brute_force_survival(n, p.tolist(), k)
            assert float(survival_truth(n, p.tolist(), k)) == pytest.approx(truth, rel=1e-15,
                                                                            abs=0.0)

    def test_routes_within_their_bounds(self, record_property):
        instances = [build_instance(n, p, k) for n, p, k in TRUTH_PANEL]
        reports = compare_batch(instances)
        worst = dict.fromkeys(TRUTH_BOUNDS, 0.0)
        tails = []
        for (n, p, k), report in zip(TRUTH_PANEL, reports):
            truth = survival_truth(n, p, k)
            tails.append(truth)
            for route, bound in TRUTH_BOUNDS.items():
                error = float(abs(getattr(report, route) - truth) / truth)
                assert error <= bound(n), (route, n, p, k, error)
                worst[route] = max(worst[route], error)
        assert min(tails) < 1e-100  # the panel reaches the deep tail
        for route, error in worst.items():
            record_property(f"worst_rel_error_{route}", error)


class TestMonotonicity:
    def test_raising_a_threshold_never_helps(self):
        rng = np.random.default_rng(44)
        for _ in range(60):
            inst = random_instance(rng, n_range=(2, 14))
            axis = int(rng.integers(0, inst.d))
            k2 = inst.k.copy()
            k2[axis] += 1
            bumped = build_instance(inst.n, inst.p, k2)
            assert survival_exact(bumped) <= survival_exact(inst) + 1e-12

    def test_all_routes_in_unit_interval(self):
        rng = np.random.default_rng(45)
        spec = QuadratureSpec(nodes=24)
        for _ in range(25):
            inst = random_instance(rng, n_range=(2, 16))
            report = compare_routes(inst, spec)
            for value in (report.exact, report.dirichlet, report.gaussian):
                if value is not None:
                    assert -1e-12 <= value <= 1 + 1e-12

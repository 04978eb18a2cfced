import dataclasses
import importlib.util
import itertools
import math
import pathlib
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
    survival_dirichlet,
    survival_exact,
    survival_gaussian,
    survival_mc,
)
from mnsurv import expansions, quadrature, survival
from mnsurv.checks import random_instance, random_weights


def binomial_tail(n, p_float, k):
    """Exact tail P(Bin(n, p) >= k) for the binary value of p.

    ``p = a / 2^e`` exactly, so the tail is a ratio of integers; Python's
    integer division rounds it to the nearest float.
    """
    a, den = Fraction(p_float).as_integer_ratio()
    b = den - a
    return sum(math.comb(n, x) * a**x * b ** (n - x) for x in range(k, n + 1)) / den**n


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

    def test_binomial_consistency(self):
        inst = build_instance(2, [0.5], [1])
        est, se = survival_mc(inst, 100_000, 314)
        assert abs(est - 0.75) <= 4 * se

    def test_deterministic(self):
        inst = build_instance(10, [0.3, 0.3], [2, 3])
        assert survival_mc(inst, 5000, 7) == survival_mc(inst, 5000, 7)

    @pytest.mark.parametrize("n, p, k, reps, seed, estimate, stderr", FROZEN_MC)
    def test_estimates_are_bit_identical(self, n, p, k, reps, seed, estimate, stderr):
        est, se = survival_mc(build_instance(n, p, k), reps, seed)
        assert (est.hex(), se.hex()) == (estimate, stderr)

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


class TestCompareBatch:
    """Each row of a batch is bit for bit its own batch of one."""

    @pytest.mark.parametrize("budget", [quadrature._CHUNK_ELEMENTS, 1], ids=["chunks", "row-chunks"])
    @given(rows=st.lists(_batch_rows(), min_size=1, max_size=8),
           nodes=st.sampled_from([16, quadrature.MIN_PANEL_NODES, 40]))
    @settings(max_examples=25, deadline=None)
    def test_rows_match_their_batch_of_one(self, budget, rows, nodes):
        spec = QuadratureSpec(nodes=nodes)
        with mock.patch.object(quadrature, "_CHUNK_ELEMENTS", budget):
            reports = compare_batch(rows, spec, replications=1000, seed=9)
            assert len(reports) == len(rows)
            for idx, (inst, report) in enumerate(zip(rows, reports)):
                alone = compare_routes(inst, spec, replications=1000, seed=9 + idx)
                assert _report_bits(report) == _report_bits(alone)

    def test_empty_batch(self):
        assert compare_batch([]) == []

    def test_one_chain_call_per_route_and_dimension(self, monkeypatch):
        calls = []
        original = survival.integrate_chain
        monkeypatch.setattr(survival, "integrate_chain",
                            lambda prefix, *args: calls.append(len(prefix)) or original(prefix, *args))
        rows = [build_instance(20, [0.3], [5]), build_instance(20, [0.3, 0.3], [5, 5]),
                build_instance(24, [0.25], [6]), build_instance(20, [0.3, 0.3], [1, 5]),
                build_instance(20, [0.3, 0.3, 0.2], [0, 5, 0])]  # reduces to d = 1
        compare_batch(rows, QuadratureSpec(nodes=32))
        # d = 1: three rows, both routes; d = 2: two rows, one Gaussian-ready
        assert sorted(calls) == [1, 2, 3, 3]

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

    def test_instances_are_consumed_in_order(self):
        def rows():
            yield build_instance(5000, [0.5], [1])  # 8 (n+1)^2 bytes exceed the guard
            raise ValueError("a later row")

        with pytest.raises(CostGuardError):
            compare_batch(rows(), routes=["exact"])


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

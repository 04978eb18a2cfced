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
    CostGuardError,
    QuadratureSpec,
    build_instance,
    expansion_context,
    integrate_region,
    legendre_rule,
    log_dirichlet_integrand,
    log_gaussian_integrand,
    make_weights,
)


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


def _block_shape(cols):
    return np.broadcast_shapes(*(np.shape(c) for c in cols))


def _node_array(cols):
    """The (m, d) array of the nodes that broadcast coordinate columns stand for."""
    shape = _block_shape(cols)
    return np.column_stack([np.broadcast_to(c, shape).ravel() for c in cols])


def _const_logf(s):
    return np.zeros(_block_shape(s))


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
        # also where exp(c) alone underflows
        inst = build_instance(10, [0.3, 0.3], [2, 3])
        logf = lambda s: log_dirichlet_integrand(inst, s)
        spec = QuadratureSpec(nodes=24)
        _, base = integrate_region(inst.weights, logf, spec)
        for c in (-800.0, -3.5, 2.0, 700.0):
            _, alt = integrate_region(inst.weights, lambda s: logf(s) + c, spec)
            assert abs(alt - (base + c)) <= 1e-14 * (abs(base) + abs(c))

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
        w = make_weights([0.4])

        def bad(cols):
            s = _node_array(cols)
            out = np.zeros(s.shape[0])
            out[s[:, 0] > 0.2] = np.nan
            return out.reshape(_block_shape(cols))

        with pytest.raises(ValueError, match="not finite"):
            integrate_region(w, bad, QuadratureSpec(nodes=8))

    def test_cost_guard(self):
        w = make_weights([0.15, 0.15, 0.15, 0.1, 0.1, 0.1])
        with pytest.raises(CostGuardError):
            integrate_region(w, _const_logf, QuadratureSpec(nodes=128))


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
    @pytest.mark.parametrize(
        "n, p, k, g",
        [
            (60, [0.3, 0.2, 0.25], [15, 10, 12], 48),  # 110,592 nodes: two blocks
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

    def test_nonfinite_in_later_block_names_its_node(self):
        g = 48
        assert g**3 > quadrature._BLOCK_NODES
        w = make_weights([0.3, 0.2, 0.25])
        x, _ = legendre_rule(g)
        calls = []

        def bad_late(cols):
            # the last first-axis nodes lie in the second block only
            s = _node_array(cols)
            calls.append(s)
            out = np.zeros(s.shape[0])
            out[s[:, 0] > 0.3 * x[-3]] = -np.inf
            return out.reshape(_block_shape(cols))

        with pytest.raises(ValueError, match="not finite") as info:
            integrate_region(w, bad_late, QuadratureSpec(nodes=g))
        assert len(calls) == 3  # reference point, first block, second block
        named = ast.literal_eval(re.search(r"\[.*\]", str(info.value)).group(0))
        block = calls[-1]
        first_bad = block[np.flatnonzero(block[:, 0] > 0.3 * x[-3])[0]]
        assert named == first_bad.tolist()

    def test_blocks_that_overflow_against_the_reference_are_rescaled(self):
        # logf(p) = -1000; exp(logf - logf(p)) overflows where s_1 < 0.058,
        # which blocks 0 and 1 reach and blocks 2 and 3 do not
        g = 64
        w = make_weights([0.2, 0.3, 0.2])
        assert g**3 // quadrature._BLOCK_NODES == 4

        def logf(s):
            return -5000.0 * s[0] + np.zeros(np.broadcast(*s).shape)

        value, log_value = integrate_region(w, logf, QuadratureSpec(nodes=g))
        pts, wts = _whole_tensor_nodes(w, g)
        logs = -5000.0 * pts[:, 0]
        top = float(logs.max())
        reference = top + math.log(math.fsum((wts * np.exp(logs - top)).tolist()))
        assert abs(log_value - reference) <= 1e-14 * abs(reference)
        assert value == pytest.approx(math.exp(reference), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "n, p, k, g",
        [
            (20, [0.3], [6], 36),
            (25, [0.3, 0.25], [6, 5], 36),
            (30, [0.3, 0.2, 0.25], [8, 5, 6], 48),  # two blocks
            (40, [0.2, 0.25, 0.2, 0.15], [6, 9, 7, 5], 20),  # three blocks
        ],
    )
    def test_nodes_match_whole_tensor_bit_for_bit(self, n, p, k, g):
        # g does not divide the block size, so blocks hold whole prefixes only
        assert quadrature._BLOCK_NODES % g
        inst = build_instance(n, p, k)
        seen = []

        def logf(s):
            seen.append(_node_array(s))
            return log_dirichlet_integrand(inst, s)

        value, _ = integrate_region(inst.weights, logf, QuadratureSpec(nodes=g))
        recorded = np.concatenate(seen[1:])  # the first call is the reference point
        reference, _ = _whole_tensor_nodes(inst.weights, g)
        assert recorded.shape == reference.shape == (g**inst.d, inst.d)
        assert max(block.shape[0] for block in seen) <= quadrature._BLOCK_NODES
        assert np.array_equal(_sorted_rows(recorded), _sorted_rows(reference))
        expected = _whole_tensor_integral(
            inst.weights, lambda s: log_dirichlet_integrand(inst, s), g
        )
        assert abs(value - expected) <= 1e-14 * expected

    @pytest.mark.parametrize(
        "p, g",
        [([0.3], 36), ([0.3, 0.25], 36), ([0.3, 0.2, 0.25], 48), ([0.2, 0.25, 0.2, 0.15], 20)],
    )
    def test_logf_sees_row_columns(self, p, g):
        w = make_weights(p)
        d = w.d
        shapes = []

        def logf(cols):
            shapes.append([c.shape for c in cols])
            return _const_logf(cols)

        integrate_region(w, logf, QuadratureSpec(nodes=g))
        assert shapes[0] == [(1,)] * d  # the reference point
        rows_seen = 0
        for block in shapes[1:]:
            rows = block[-1][0]
            assert block == [(rows, 1)] * (d - 1) + [(rows, g)]
            rows_seen += rows
        assert rows_seen == g ** (d - 1)
        assert shapes[1][-1][0] == min(quadrature._BLOCK_NODES // g, g ** (d - 1))

    def test_repeated_integral_is_bit_identical(self):
        inst = build_instance(50, [0.2, 0.25, 0.2, 0.15], [8, 10, 8, 6])
        spec = QuadratureSpec(nodes=20)
        for logf in (
            lambda s: log_dirichlet_integrand(inst, s),
            lambda s: log_gaussian_integrand(inst, s),
        ):
            first = integrate_region(inst.weights, logf, spec)
            assert integrate_region(inst.weights, logf, spec) == first

    def test_peak_memory_independent_of_node_count(self):
        w = make_weights([0.2, 0.2, 0.2, 0.2])
        tracemalloc.start()
        try:
            value, _ = integrate_region(w, _const_logf, QuadratureSpec(nodes=40))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # equal prefix steps h: volume h^d (d+1)^(d-1) / d! (parking functions)
        assert value == pytest.approx(0.2**4 * 5**3 / 24, rel=1e-13, abs=0.0)
        assert peak < 32e6


def _sorted_rows(pts):
    return pts[np.lexsort(pts.T[::-1])]


@pytest.fixture
def pooled(monkeypatch):
    """At least two block workers, so the pool runs even on a one-CPU machine."""
    monkeypatch.setattr(quadrature, "_WORKERS", max(2, quadrature._WORKERS))


def _block_of(weights, g, cols):
    """Index of the block whose nodes the coordinate columns hold; None for
    the reference point."""
    if cols[-1].ndim == 1:
        return None
    x, _ = legendre_rule(g)
    running = np.zeros(cols[0].shape[0])
    row = np.zeros(cols[0].shape[0], dtype=np.int64)
    for i, col in enumerate(cols[:-1]):
        upper = weights.prefix[i] - running
        digit = np.abs((col[:, 0] / upper)[:, None] - x).argmin(axis=1)
        row = row * g + digit
        running = running + col[:, 0]
    blocks = row // (quadrature._BLOCK_NODES // g)
    assert np.all(blocks == blocks[0])
    return int(blocks[0])


def _d4_g40_integral(logf):
    w = make_weights([0.2, 0.2, 0.2, 0.2])
    assert -(-(40**3) // (quadrature._BLOCK_NODES // 40)) == 40  # blocks
    return integrate_region(w, logf, QuadratureSpec(nodes=40))


class TestBlockPool:
    @pytest.mark.parametrize(
        "n, p, k, g",
        [
            (50, [0.2, 0.25, 0.2, 0.15], [8, 10, 8, 6], 40),  # 40 blocks
            (60, [0.15, 0.2, 0.15, 0.2, 0.1], [6, 9, 6, 9, 4], 16),  # 16 blocks
            (70, [0.1, 0.15, 0.1, 0.15, 0.1, 0.15], [5, 8, 5, 8, 5, 8], 10),  # 16 blocks
        ],
    )
    def test_threaded_equals_serial_bit_for_bit(self, monkeypatch, pooled, n, p, k, g):
        inst = build_instance(n, p, k)
        ctx = expansion_context(inst)
        spec = QuadratureSpec(nodes=g)
        threads = set()

        def dirichlet(s):
            threads.add(threading.get_ident())
            return log_dirichlet_integrand(inst, s)

        def gaussian(s):
            threads.add(threading.get_ident())
            return log_gaussian_integrand(ctx, s)

        for logf in (dirichlet, gaussian):
            threaded = integrate_region(inst.weights, logf, spec)
            with monkeypatch.context() as serial:
                serial.setattr(quadrature, "_WORKERS", 1)
                assert integrate_region(inst.weights, logf, spec) == threaded
        assert len(threads) > 1

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_lowest_failing_block_is_named(self, monkeypatch, workers):
        # with 2 shares blocks 3 and 7 share one; with 3 or 5 they do not,
        # so block 7 may fail first and must still lose to block 3
        monkeypatch.setattr(quadrature, "_WORKERS", workers)
        w = make_weights([0.2, 0.2, 0.2, 0.2])
        g = 40
        first_bad = {}

        def planted(cols):
            logs = np.zeros(_block_shape(cols))
            block = _block_of(w, g, cols)
            if block in (3, 7):
                logs[:, g // 2 :] = np.nan
                first_bad[block] = [float(np.broadcast_to(c, logs.shape)[0, g // 2]) for c in cols]
            return logs

        for _ in range(20):
            with pytest.raises(ValueError, match="not finite") as info:
                _d4_g40_integral(planted)
            named = ast.literal_eval(re.search(r"\[.*\]", str(info.value)).group(0))
            assert named == first_bad[3]

    def test_exception_from_pool_block_propagates(self, pooled):
        w = make_weights([0.2, 0.2, 0.2, 0.2])
        raised_on = []

        def failing(cols):
            if _block_of(w, 40, cols) == 5:
                raised_on.append(threading.get_ident())
                raise ValueError("planted in block 5")
            return _const_logf(cols)

        with pytest.raises(ValueError) as info:
            _d4_g40_integral(failing)
        assert type(info.value) is ValueError
        assert str(info.value) == "planted in block 5"
        assert raised_on and raised_on[0] != threading.get_ident()

    def test_single_block_stays_on_caller(self, pooled):
        w = make_weights([0.3, 0.2, 0.25])
        threads = []

        def logf(cols):
            threads.append(threading.get_ident())
            return _const_logf(cols)

        integrate_region(w, logf, QuadratureSpec(nodes=24))  # 576 rows: one block
        assert len(threads) == 2  # reference point, the block
        assert set(threads) == {threading.get_ident()}

    def test_fork_child_integrates_after_parent(self, pooled):
        expected = _d4_g40_integral(_const_logf)  # the parent's pool now exists
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put(_d4_g40_integral(_const_logf)))
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

    def test_nested_integral_in_pool_thread_finishes(self, pooled):
        w = make_weights([0.2, 0.25, 0.2, 0.15])
        spec = QuadratureSpec(nodes=20)  # three blocks: two go to the pool
        inner_value, _ = integrate_region(w, _const_logf, spec)
        nested = []

        def logf(cols):
            nested.append((threading.get_ident(), integrate_region(w, _const_logf, spec)[0]))
            return _const_logf(cols)

        outer = []
        thread = threading.Thread(target=lambda: outer.append(integrate_region(w, logf, spec)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert outer[0][0] == inner_value
        assert {value for _, value in nested} == {inner_value}
        assert any(ident != thread.ident for ident, _ in nested)  # some ran on the pool

    def test_concurrent_callers_agree(self, monkeypatch):
        # more shares than cores, several callers, short switch interval:
        # a partial lost or misplaced would change some caller's bits
        monkeypatch.setattr(quadrature, "_WORKERS", 5)
        inst = build_instance(50, [0.2, 0.25, 0.2, 0.15], [8, 10, 8, 6])
        spec = QuadratureSpec(nodes=24)
        logf = lambda s: log_dirichlet_integrand(inst, s)
        with monkeypatch.context() as serial:
            serial.setattr(quadrature, "_WORKERS", 1)
            expected = integrate_region(inst.weights, logf, spec)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [
                threading.Thread(
                    target=lambda: results.extend(
                        integrate_region(inst.weights, logf, spec) for _ in range(3)
                    )
                )
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

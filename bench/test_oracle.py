"""Tests of the benchmark's oracle and checks.

Run from the repository root with ``python3 -m pytest bench``.
"""

import itertools
import json
import math

import mpmath
import pytest
from scipy.stats import binom

import oracle
import panels
import verify


def _brute_force(n, p, k):
    """Sum of multinomial pmf terms over every count vector in the event."""
    cells = list(p) + [1.0 - sum(p)]
    kappa = list(itertools.accumulate(k))
    terms = []
    for x in itertools.product(range(n + 1), repeat=len(p)):
        if sum(x) > n or any(s < c for s, c in zip(itertools.accumulate(x), kappa)):
            continue
        full = list(x) + [n - sum(x)]
        coef = math.factorial(n)
        for xi in full:
            coef //= math.factorial(xi)
        terms.append(coef * math.prod(c**xi for c, xi in zip(cells, full)))
    return math.fsum(terms)


@pytest.mark.parametrize("n,p,k", [
    (1, 0.5, 1), (10, 0.3, 0), (10, 0.3, 3), (40, 0.05, 10), (150, 0.7, 100),
    (1000, 0.3, 290), (1000, 0.3, 330), (1000, 0.3, 700),
])
def test_single_cell_is_the_binomial_tail(n, p, k):
    assert oracle.survival(n, [p], [k]) == pytest.approx(binom.sf(k - 1, n, p), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_matches_brute_force_enumeration(d, n):
    p = [0.31, 0.22, 0.17][:d]
    for k in itertools.product(range(n + 2), repeat=d):
        expected = _brute_force(n, p, k)
        got = oracle.survival(n, p, k)
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-300), k


def test_deep_tail_stays_in_log_space():
    n, p, k = 1000, 0.05, 600
    mpmath.mp.dps = 50
    exact = mpmath.fsum(
        mpmath.binomial(n, x) * mpmath.mpf(p) ** x * (1 - mpmath.mpf(p)) ** (n - x)
        for x in range(k, n + 1))
    assert oracle.log_survival(n, [p], [k]) == pytest.approx(float(mpmath.log(exact)), rel=1e-12)


def test_impossible_and_vacuous_events():
    assert oracle.survival(10, [0.2, 0.3], [6, 5]) == 0.0
    assert oracle.survival(10, [0.2, 0.3], [0, 0]) == pytest.approx(1.0, rel=1e-15)


def test_shared_transition_matrices_give_the_same_values():
    mats = oracle.log_transition_matrices(30, [0.2, 0.3, 0.1])
    for k in [(1, 1, 1), (5, 9, 2), (10, 10, 10)]:
        assert oracle.survival(30, [0.2, 0.3, 0.1], k, mats) == oracle.survival(
            30, [0.2, 0.3, 0.1], k)


def test_sweep_grid_counts_every_threshold_vector_once():
    for op in panels.build("cli-batch", 0).ops[:2]:
        grid = panels.sweep_grid(op)
        assert len(grid) == len(set(grid)) == sum(math.comb(n, op.d) for n in op.grid_n)
        assert all(min(k) >= 1 and sum(k) <= n for n, k in grid)


def test_failure_lower_bound_matches_single_cell_tail():
    assert panels.failure_lower_bound(20, [0.4], [5]) == pytest.approx(binom.cdf(4, 20, 0.4))


def test_checker_flags_wrong_values():
    panel = panels.build("quad-d4", 0)
    op = panel.ops[0]
    truth = oracle.survival(op.n, op.p, op.k)
    checker = verify.Checker(panel)
    good = {"op": 0, "s": 1.0, "values": [None, truth, truth]}
    assert checker.check(0, good, {})[0] == []
    for values in ([None, truth * (1 + 1e-8), truth],
                   [None, truth, truth * (1 - 1e-8)],
                   [None, None, truth]):
        record = dict(good, values=values)
        assert checker.check(0, record, {})[0], values


def test_checker_flags_a_wrong_monte_carlo_count():
    n, p, k, reps = 20, [0.3, 0.3], [4, 5], 2000
    op = panels.CliOp("compare-batch", (), "compare.json", "json", reps, input="batch.json",
                      records=({"n": n, "p": p, "k": k},))
    checker = verify.Checker(panels.Panel((16,), (op,)))
    truth = oracle.survival(n, p, k)
    for mc, flagged in ((round(truth * reps) / reps, False), (truth - 0.2, True)):
        report = {"instance": {"n": n, "p": p, "k": k},
                  "routes": {"exact": truth, "dirichlet": truth, "gaussian": truth,
                             "mc": {"estimate": mc}}}
        problems, rows, _ = checker.check(0, {"sha": str(mc)}, {str(mc): json.dumps([report])})
        assert rows == 1
        assert bool(problems) == flagged, problems


def test_checker_flags_values_above_one():
    panel = panels.build("cli-batch", 0)
    op = panel.ops[1]
    text = _sweep_csv(op, bump=(1, 1, 1))
    problems, rows, _ = verify.Checker(panel).check(1, {"sha": "x"}, {"x": text})
    assert rows == len(panels.sweep_grid(op))
    assert any("outside [0, 1]" in msg for msg in problems)


def _sweep_csv(op, bump):
    """A sweep CSV with oracle values, one row's Dirichlet value set above 1."""
    header = ["n", "d"] + [f"p_{i + 1}" for i in range(op.d)] + [
        f"k_{i + 1}" for i in range(op.d)] + [
        "exact", "dirichlet", "gaussian", "mc_est", "mc_se", "delta_n", "gamma_tilde",
        "max_rel_diff"]
    lines = [",".join(header)]
    for n, k in panels.sweep_grid(op):
        v = oracle.survival(n, op.p, k)
        d = 1.0000000000000004 if k == bump else v
        row = [n, op.d, *op.p, *k, repr(v), repr(d), "", repr(v), "", "", "", ""]
        lines.append(",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"

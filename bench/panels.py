"""Seeded workload panels: the instances and operations of one round.

A panel is pure data built from ``(workload, seed)`` with numpy only, so the
measured worker (which times the program) and the checking parent (which
computes the oracle) build the same panel independently.  Every round of a
run repeats the panel's operations in order.  The seed changes weights and
thresholds but never the shape of the work: node counts, ``n`` ranges,
grid sizes and replication counts are fixed per workload, so the cost of a
round hardly depends on the seed.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("quad-d4", "cli-batch")


@dataclass(frozen=True)
class RoutesOp:
    """One ``compare_routes`` call on one instance."""

    n: int
    p: tuple
    k: tuple
    nodes: int
    routes: tuple


@dataclass(frozen=True)
class CliOp:
    """One in-process ``mnsurv.cli.run`` call writing one output file.

    The call writes to ``--out <dir>/<out>``, where ``<dir>`` is the run's
    work directory, which also replaces ``{dir}`` in ``argv``.  For a
    ``sweep --k-all`` op ``grid_n`` and ``p`` describe the grid; for a
    ``compare --input`` op ``records`` is the batch written to ``input``.
    """

    name: str
    argv: tuple
    out: str
    fmt: str
    mc_reps: int
    d: int = 0
    p: tuple = ()
    grid_n: tuple = ()
    input: str | None = None
    records: tuple = ()


@dataclass(frozen=True)
class Panel:
    nodes: tuple              # every Gauss-Legendre size the round uses
    ops: tuple


def build(workload: str, seed: int) -> Panel:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    return _PANEL_MAKERS[workload](rng)


def _weights(rng, d, floor):
    """Dirichlet weights over d+1 cells, 4 decimals, every cell >= floor."""
    while True:
        w = np.round(rng.dirichlet(np.full(d + 1, 8.0))[:d], 4)
        if w.min() >= floor and 1.0 - w.sum() >= floor:
            return tuple(float(v) for v in w)


def _near_mean(rng, n, p):
    """Thresholds within about one standard deviation below the mean.

    Every ``k_i >= 2`` and ``kappa_d <= n - 1`` so that the Gaussian route
    applies.
    """
    p = np.asarray(p)
    while True:
        z = rng.uniform(-1.0, 0.5, p.size)
        k = np.round(n * p + z * np.sqrt(n * p * (1.0 - p))).astype(int)
        if k.min() >= 2 and k.sum() <= n - 1:
            return tuple(int(v) for v in k)


def _quad_d4(rng):
    # One instance per node count; n <= 2G keeps every rule exact for the
    # polynomial integrand, so the quadrature itself adds no error.
    ops = []
    for g in (32, 36, 40):
        n = int(rng.integers(40, 61))
        p = _weights(rng, 4, 0.05)
        ops.append(RoutesOp(n, p, _near_mean(rng, n, p), g, ("dirichlet", "gaussian")))
    return Panel((32, 36, 40), tuple(ops))


CLI_MC_REPS = 2000
CLI_BATCH_SIZE = 800


# Events that fail with probability below this are left out: the integral
# routes return values a few ulps above 1 on them (see CHANGES.md).
NEAR_CERTAIN = 1e-9


def failure_lower_bound(n, p, k):
    """``max_i P(S_i < kappa_i)``, a lower bound on ``P(some S_i < kappa_i)``.

    ``S_i`` is ``Binomial(n, p_1 + ... + p_i)``; the bound is exact
    arithmetic on a handful of binomial terms, so it needs no oracle.
    """
    bound, prefix, kappa = 0.0, 0.0, 0
    for pi, ki in zip(p, k):
        prefix += pi
        kappa += ki
        below = sum(math.comb(n, x) * prefix**x * (1.0 - prefix) ** (n - x)
                    for x in range(min(kappa, n + 1)))
        bound = max(bound, below)
    return bound


def _cli_batch(rng):
    ops = [
        _sweep(rng, "sweep-d2", 2, (24, 40), 24, "json"),
        _sweep(rng, "sweep-d3", 3, (10, 16), 10, "csv"),
    ]
    records = []
    for i in range(CLI_BATCH_SIZE):
        # a fixed (d, n) schedule: only weights and thresholds are seeded
        d, n = 1 + i % 3, 4 + (i // 3) % 27
        while True:
            # thresholds include zeros (merged cells) and, rarely, kappa_d > n
            k = [int(v) for v in rng.integers(0, n // d + 2, d)]
            p = _weights(rng, d, 0.05)
            if not any(k) or failure_lower_bound(n, p, k) >= NEAR_CERTAIN:
                break
        records.append({"n": n, "p": list(p), "k": k})
    ops.append(CliOp(
        "compare-batch",
        ("compare", "--input", "{dir}/batch.json", "--nodes", "16", "--mc-reps",
         str(CLI_MC_REPS), "--seed", str(int(rng.integers(2**20))), "--format", "json"),
        "compare.json", "json", CLI_MC_REPS, input="batch.json", records=tuple(records),
    ))
    return Panel((10, 16, 24), tuple(ops))


def _sweep(rng, name, d, grid_n, nodes, fmt):
    # raising any threshold only makes failure likelier, so the all-ones
    # vector at the largest n is the grid's most nearly certain event
    p = _weights(rng, d, 0.1)
    while failure_lower_bound(grid_n[-1], p, (1,) * d) < NEAR_CERTAIN:
        p = _weights(rng, d, 0.1)
    lo, hi = grid_n
    argv = ("sweep", "--n", f"{lo}:{hi}:{hi - lo}", "--p", _csv(p), "--k-all",
            "--nodes", str(nodes), "--mc-reps", str(CLI_MC_REPS),
            "--seed", str(int(rng.integers(2**20))), "--format", fmt)
    return CliOp(name, argv, f"{name}.{fmt}", fmt, CLI_MC_REPS, d, p, grid_n)


def _csv(values):
    return ",".join(repr(v) for v in values)


def sweep_grid(op: CliOp):
    """Every ``(n, k)`` a ``sweep --k-all`` op must write, in no set order.

    ``k`` ranges over all vectors with every ``k_i >= 1`` and ``sum(k) <= n``:
    choosing the d distinct partial sums from ``1..n`` gives ``C(n, d)`` of
    them per ``n``.
    """
    return [
        (n, tuple(b - a for a, b in zip((0,) + cuts[:-1], cuts)))
        for n in op.grid_n
        for cuts in itertools.combinations(range(1, n + 1), op.d)
    ]


_PANEL_MAKERS = {"quad-d4": _quad_d4, "cli-batch": _cli_batch}

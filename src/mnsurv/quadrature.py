"""Numerical integration over the nested prefix-constrained region.

Two integrators share the Gauss-Legendre rule of :func:`legendre_rule`.

* :func:`integrate_chain` is the one the survival routes use.  In the
  cumulated coordinates ``T_i = s_1 + ... + s_i`` the region is ``0 < T_1 <
  ... < T_d`` with ``T_i <= P_i`` (the weight prefix sums), and an
  integrand that is a sum of one log factor per cell, ``phi_i(T_i -
  T_{i-1})`` for ``i <= d`` and ``phi_{d+1}(1 - T_d)``, a
  :class:`ChainFactors`, makes the ``d``-fold integral a ``d``-step
  forward recursion of an integral operator.  The recursion is
  discretised by a Nystrom rule on panels split at the prefix sums, in log
  space; each target's sum runs over its own terms only, at a cost
  polynomial in the nodes per panel.  It integrates a batch of same-``d``
  integrands, one per row, in one recursion.
* :func:`integrate_region` is the iterated (tensor-product) rule with
  variable upper limits ``U_i = P_i - (s_1 + ... + s_{i-1})``, for any
  log-integrand at ``G^d`` evaluations.  It is a short serial reference
  rule: it evaluates every node in one call, and checks the chain rule at
  small ``d``.  No survival route calls it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import ProbabilityWeights

__all__ = [
    "QuadratureSpec",
    "CostGuardError",
    "ChainFactors",
    "legendre_rule",
    "mapped_interpolation",
    "integrate_chain",
    "integrate_region",
    "MAX_NODE_EVALS",
    "MAX_CHAIN_EVALUATIONS",
    "chain_evaluations",
    "MIN_NODES",
    "MAX_NODES",
    "MIN_PANEL_NODES",
]

# Accepted Gauss-Legendre nodes per axis or per panel.
MIN_NODES, MAX_NODES = 2, 128

# The chain rule uses at least this many nodes per panel: interpolating
# ``log F`` across a panel needs them at small n (on random instances with
# n <= 40, 24 left errors up to 7e-13, 32 up to 1.4e-14).
MIN_PANEL_NODES = 32

# integrate_region refuses more than this many integrand evaluations.  It
# holds every node at once, so the guard bounds memory (see its docstring).
MAX_NODE_EVALS = 10**6

# exp arguments are clamped here: below about -708 exp returns subnormals,
# which are many times slower, and terms this small change no sum.
_EXP_FLOOR = -700.0

# The reductions of ndarray.max and ndarray.sum, without the Python wrappers
# those methods add to every call of the chain rule's many small ones.
_max, _sum = np.maximum.reduce, np.add.reduce


class CostGuardError(RuntimeError):
    """A requested computation exceeds the configured cost bounds."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre nodes, ``2 <= nodes <= 128``.

    For the chain rule of the survival routes, ``nodes`` is the number per
    panel, of which at least ``MIN_PANEL_NODES`` are used; its cost grows as
    ``d^3 nodes^2``.  For :func:`integrate_region` it is the number per
    axis, exactly, at a cost of ``nodes**d`` evaluations held in memory at
    once.  ``nodes`` is kept as a Python ``int``; a float is refused.
    """

    nodes: int = 64

    def __post_init__(self):
        object.__setattr__(self, "nodes", _node_count(self.nodes))


def _node_count(nodes) -> int:
    """``nodes`` as an ``int`` in ``[MIN_NODES, MAX_NODES]``; a float is refused."""
    nodes = operator.index(nodes)
    if not MIN_NODES <= nodes <= MAX_NODES:
        raise ValueError(f"nodes must be in [{MIN_NODES}, {MAX_NODES}], got {nodes}")
    return nodes


@lru_cache(maxsize=None)
def legendre_rule(nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1].

    Nodes are the roots of the Legendre polynomial, found by Newton iteration
    from the Chebyshev-like initial guess; the rule integrates polynomials up
    to degree ``2*nodes - 1`` exactly and its weights are positive and sum
    to 1.

    Returns
    -------
    (ndarray, ndarray)
        Nodes in increasing order, strictly inside (0, 1), and weights.
    """
    g = _node_count(nodes)
    k = np.arange(1, g + 1)
    x = np.cos(np.pi * (k - 0.25) / (g + 0.5))
    for _ in range(100):
        pk, dp = _legendre_and_derivative(g, x)
        dx = pk / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            # one polishing step after convergence
            pk, dp = _legendre_and_derivative(g, x)
            x -= pk / dp
            break
    _, dp = _legendre_and_derivative(g, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce the exact symmetry of the rule about the midpoint
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    nodes01 = 0.5 * (x[::-1] + 1.0)
    weights01 = 0.5 * w[::-1]
    nodes01.setflags(write=False)
    weights01.setflags(write=False)
    return nodes01, weights01


def _legendre_and_derivative(g, x):
    """Value and derivative of the degree-g Legendre polynomial at x."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for m in range(2, g + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    dp = g * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


@lru_cache(maxsize=None)
def mapped_interpolation(nodes: int) -> np.ndarray:
    """Interpolation from the rule's nodes to the products ``x_b * x_a``.

    Returns the ``(G, G^2)`` matrix ``L`` with ``L[c, b*G + a] =
    l_c(x_b x_a)``, where ``l_c`` is the Lagrange basis polynomial of node
    ``c``: values at the ``G`` nodes of ``[0, 1]``, times ``L``, give the
    interpolant at the nodes of the rule mapped to ``[0, x_b]``, for every
    ``b``.  It is the barycentric formula with the closed-form weights
    ``(-1)^c sqrt(x_c (1 - x_c) w_c)`` of the Gauss-Legendre nodes.  For
    every accepted ``nodes``, no product ``x_b x_a`` is a node.
    """
    x, w = legendre_rule(nodes)
    bary = np.sqrt(x * (1.0 - x) * w)
    bary[1::2] *= -1.0
    points = np.multiply.outer(x, x).ravel()
    terms = bary[:, None] / (points - x[:, None])
    out = terms / terms.sum(axis=0)
    out.setflags(write=False)
    return out


class ChainFactors(NamedTuple):
    """A batch of ``B`` log-integrands in the cumulated coordinates ``T_i =
    s_1 + ... + s_i``, one per row, with one factor per cell.

    Row ``r`` is ``constant[r] + sum_{i < d} steps[i](s_{i+1}, ln s_{i+1})[r]
    + steps[d](T_d, ln(1 - T_d))[r]``, the form :func:`integrate_chain`
    integrates: the last cell's mass is ``s_{d+1} = 1 - T_d``.  As its
    spacing ``u`` goes to 0, ``steps[i]`` of row ``r``, ``i < d``, behaves as
    ``powers[r, i] * ln u`` plus a smooth function (a power of 0 is smooth).

    The factors are elementwise: called with arrays of shape ``(B, rows,
    cols)``, or ``(1, rows, cols)`` for points every row shares, they return
    a new ``(B, rows, cols)`` array whose row ``r`` is row ``r``'s factor.
    Each also has ``rows(index)``, the factor of the rows ``index`` selects.
    """

    constant: np.ndarray  # (B,)
    steps: tuple          # d+1 cell factors of (coordinate, log of the cell's mass)
    powers: np.ndarray    # (B, d)

    def rows(self, index) -> "ChainFactors":
        """The factors of the rows ``index`` (a slice or an index array) selects."""
        return ChainFactors(
            self.constant[index],
            tuple(step.rows(index) for step in self.steps),
            self.powers[index],
        )


class _ChainGrid(NamedTuple):
    """The chain rule's fixed arrays for the panels of ``R`` regions, one
    region per leading row (``R = 1`` for a grid that every row shares).

    Panel ``m`` is ``[P_{m-1}, P_m]`` with ``G`` nodes ``t``; a level's
    values are indexed ``m*G + b``.  ``step[i-1]`` lists the steps ``u = T -
    T'`` of the terms of level ``i + 1``, one block of rows per target
    panel ``m <= i``, at row ``G m (m+1) / 2``: column ``b`` of block ``m``
    holds the terms of the target ``t[m, b]``, first the ``G`` points of the
    panel's own rule mapped to ``[P_{m-1}, t[m, b]]`` (none in the newest
    panel ``m = i``), then every node of the full panels ``0..m-1``.  Their
    log rule weights are stored once: ``log_stretch_weight[:, m]`` for the
    mapped points of panel ``m``, ``log_node_weight`` for the nodes.  Sums
    run down the columns, which numpy reduces faster than rows.
    """

    t: np.ndarray                   # (R, 1, d*G) nodes
    log_t: np.ndarray               # (R, 1, d*G)
    log_node_weight: np.ndarray     # (R, d*G) log of the rule weight of each node
    step: tuple                     # d-1 arrays, (R, i (i+3) G / 2, G) for level i + 1
    log_step: tuple                 # the same shapes
    log_stretch_weight: np.ndarray  # (R, d-1, G, G) log weights of the mapped points
    log_mapped: np.ndarray          # (R, G*G) log of the mapped points of panel 0


def _chain_grid(prefix: np.ndarray, g: int) -> _ChainGrid:
    """The grid of the ``(R, d)`` prefix sums ``prefix``."""
    x, w = legendre_rule(g)
    rows, d = prefix.shape
    upper = prefix
    lower = np.concatenate([np.zeros((rows, 1)), upper[:, :-1]], axis=1)
    width = upper - lower
    scaled = width[:, :, None] * x                         # (R, d, G): h_m x_b
    t = (lower[:, :, None] + scaled).reshape(rows, 1, d * g)
    tail = width[:, :, None] * (1.0 - x)                   # (R, d, G): h_j (1 - x_a)
    # mapped points of panel m: T - T' = h_m x_b (1 - x_a), weight h_m x_b w_a;
    # the last panel is only ever the newest, so it needs none
    stretch = (1.0 - x)[:, None] * scaled[:, : d - 1, None, :]   # (R, d-1, G, G)
    full = []
    for m in range(d):
        # full panels j < m: T - T' = (P_{m-1} - P_j) + h_j (1 - x_a) + h_m x_b
        gap = (lower[:, m, None] - upper[:, :m])[:, :, None] + tail[:, :m]
        full.append(gap.reshape(rows, m * g, 1) + scaled[:, m, None, :])
    log_node_weight = np.log(width[:, :, None] * w).reshape(rows, d * g)
    log_stretch_weight = np.log(w)[:, None] + np.log(scaled[:, : d - 1])[:, :, None, :]
    step = []
    for i in range(1, d):
        blocks = []
        for m in range(i + 1):
            if m < i:
                blocks.append(stretch[:, m])
            blocks.append(full[m])
        step.append(np.concatenate(blocks, axis=1))
    grid = _ChainGrid(
        t=t,
        log_t=np.log(t),
        log_node_weight=log_node_weight,
        step=tuple(step),
        log_step=tuple(np.log(s) for s in step),
        log_stretch_weight=log_stretch_weight,
        log_mapped=np.log(scaled[:, 0, :, None] * x).reshape(rows, g * g),
    )
    for value in grid:
        for array in value if isinstance(value, tuple) else (value,):
            array.setflags(write=False)
    return grid


@lru_cache(maxsize=8)
def _shared_chain_grid(prefix: tuple, g: int) -> _ChainGrid:
    """The one-row grid of ``prefix``, kept for the next integral over it;
    for rows of at most ``_CHUNK_ELEMENTS`` evaluations, about 4 MB a grid."""
    return _chain_grid(np.array([prefix]), g)


# A chunk of rows makes at most this many factor evaluations, (d-1) d (d+4)
# / 6 G^2 per row (rows of d = 3 at G = 32 go 36 at a time), or one row if
# that is more.  compare_batch with the two integral routes on the rows of
# one cli-batch round (seed 1: two sweeps and an 800-row batch, d <= 3, G =
# 32; median of 8 on a 2-vCPU Xeon with AVX-512 and 2 MB of L2 per core)
# took 1.11 s in 1-row chunks, 0.67 s at 2^14, 0.50-0.51 s at 2^16 to
# 2^18 (9 to 36 rows of d = 3), 0.54 s at 2^19 and 0.64 s at 2^21.
_CHUNK_ELEMENTS = 2**18


# The chain rule refuses a row of more factor evaluations than this.  Its
# grid and the terms of its last level peak, by tracemalloc, at 20.5-24.6
# bytes per evaluation for d = 10 at G = 64 and 128, and 18.6-21.0 at d =
# 18, G = 64 (the two survival integrands), so an admitted row stays under
# about 1 GB: d <= 22 at G = 128, d <= 35 at G = 64.
MAX_CHAIN_EVALUATIONS = 2**25


def chain_evaluations(d: int, nodes: int) -> int:
    """The factor evaluations of one row of :func:`integrate_chain` in ``d``
    cells, ``(d-1) d (d+4) / 6 G^2`` at ``G = max(nodes, MIN_PANEL_NODES)``
    nodes per panel.

    Raises
    ------
    CostGuardError
        If they exceed ``MAX_CHAIN_EVALUATIONS``.
    """
    g = max(nodes, MIN_PANEL_NODES)
    count = (d - 1) * d * (d + 4) // 6 * g * g
    if count > MAX_CHAIN_EVALUATIONS:
        raise CostGuardError(
            f"the chain rule's {count} factor evaluations per row (d = {d}, G = {g}) "
            f"exceed the {MAX_CHAIN_EVALUATIONS} guard"
        )
    return count


def integrate_chain(prefix, factors: ChainFactors, spec=None):
    """Integrals of ``exp(constant + sum_{i < d} steps[i](T_{i+1} - T_i) +
    steps[d](T_d))`` over ``0 < T_1 < ... < T_d``, ``T_i <= P_i`` (so ``T_0
    = 0``), one per row of a batch.

    Parameters
    ----------
    prefix : array_like, shape (B, d)
        Row ``r`` holds the prefix sums ``P_i`` that bound row ``r``'s
        region (``ProbabilityWeights.prefix``).
    factors : ChainFactors
        The ``B`` log-integrands: a ``(B,)`` ``constant``, ``d+1`` cell
        factors, ``steps[i](u, ln u)`` of the spacings ``u > 0`` for ``i <
        d`` and ``steps[d](T, ln(1 - T))`` of ``T_d``, and the ``(B, d)``
        ``powers`` of the spacings' log singularities at ``u = 0``.
    spec : QuadratureSpec, optional
        Nodes per panel; ``max(spec.nodes, MIN_PANEL_NODES)`` are used.
        Defaults to 64.

    Returns
    -------
    (ndarray, ndarray)
        The ``B`` integrals and their natural logs.  A log is finite
        wherever the factors are, and an integral is ``inf`` past ``e^709``.
        Each row's pair is bit for bit the pair of its batch of one.

    Raises
    ------
    ValueError
        If ``factors`` does not hold ``d+1`` cell factors, a ``(B,)``
        constant and ``(B, d)`` powers for the ``B`` rows of ``prefix``, or
        if a log is not finite; the message gives the first such row's.
    CostGuardError
        If a row takes more than ``MAX_CHAIN_EVALUATIONS`` factor
        evaluations (:func:`chain_evaluations`), before anything is built.

    Notes
    -----
    ``F_i(T)``, the integral over ``T_1..T_{i-1}`` with ``T_i = T``, obeys
    ``F_1 = exp(steps[0])`` and ``F_i(T) = int F_{i-1}(T') exp(steps[i-1](T
    - T')) dT'`` over ``T' < min(T, P_{i-1})``.  ``[0, P_d]`` is split into
    panels at the ``P_j``, each with ``G`` Gauss-Legendre nodes, and level
    ``i`` holds ``log F_i`` at the nodes of panels ``1..i``.  For a target
    in panel ``m``, the full panels below ``m`` are summed with their own
    nodes, and the stretch of panel ``m`` below the target with the rule
    mapped to it; ``log F_{i-1}`` (not ``F_{i-1}``, which spans hundreds of
    decades in a panel at n = 1000) is brought to the mapped points by
    polynomial interpolation, the matrix of :func:`mapped_interpolation`.
    On panel 1, ``F_{i-1}`` is ``T^a`` times a smooth factor, with ``a`` the
    sum of the powers of steps ``1..i-1`` plus ``i - 2``, so ``log F - a ln
    T`` is interpolated instead.  Level ``i + 1`` evaluates ``i (i + 3) /
    2`` blocks of ``G x G`` terms, each factor once over all of them, and
    takes one log-sum-exp per panel of targets over the terms in their
    sums.  The cost is about ``d^3 G^2 / 6`` factor evaluations and ``d^2
    G^3 / 2`` multiply-adds per row; memory ``O(d^3 G^2 + G^3)`` per row.

    The batch runs as one recursion with a leading row axis, in chunks of
    consecutive rows whose factor evaluations number about
    ``_CHUNK_ELEMENTS`` together, so the working set stays in cache.  Every
    elementwise operation, and every sum's order, is that of the row alone,
    so neither the batch nor the chunking moves a bit.  A chunk whose rows
    differ in their prefix sums builds one grid per row.  Any other chunk
    takes a one-row grid, and the chunks after it reuse that grid while
    their prefix sums repeat.  A new one-row grid comes from the last eight
    kept for rows of up to ``_CHUNK_ELEMENTS`` evaluations, or, for a wider
    row, is built for this call alone.
    """
    return _integrate_chains(prefix, (factors,), spec)[0]


def _integrate_chains(prefix, factor_sets, spec=None) -> list:
    """:func:`integrate_chain` of each batch of ``factor_sets`` over the
    same ``prefix`` rows, as a list of ``(values, logs)`` pairs; each
    chunk's grid is built once for every set (both survival integrands of
    a batch's Gaussian-ready rows)."""
    spec = spec if spec is not None else QuadratureSpec()
    prefix = np.asarray(prefix, dtype=float)
    count, d = prefix.shape
    for factors in factor_sets:
        if len(factors.steps) != d + 1:
            raise ValueError(f"need {d + 1} step factors, one per cell, got {len(factors.steps)}")
        if np.shape(factors.constant) != (count,) or np.shape(factors.powers) != (count, d):
            raise ValueError(f"factors do not match the {count} prefix rows of d = {d}")
    g = max(spec.nodes, MIN_PANEL_NODES)
    evaluations = chain_evaluations(d, g)  # raises past the cost guard, before any grid is built
    size = max(1, _CHUNK_ELEMENTS // max(g * g, evaluations))
    cached = evaluations <= _CHUNK_ELEMENTS
    log_values = [[] for _ in factor_sets]
    key = None  # the prefix sums of the last one-row grid
    for lo in range(0, count, size):
        rows = slice(lo, lo + size)
        part = prefix[rows]
        first = tuple(part[0].tolist())
        if len(part) > 1 and not (part == part[0]).all():
            key, grid = None, _chain_grid(part, g)
        elif first != key:
            key = first
            grid = _shared_chain_grid(key, g) if cached else _chain_grid(part[:1], g)
        for logs, factors in zip(log_values, factor_sets):
            # a batch of one chunk is integrated as given
            logs += _chain_logs(grid, factors if size >= count else factors.rows(rows), g)
    return [_exp_logs(logs) for logs in log_values]


def _exp_logs(log_values):
    """The integrals of finite log values and those logs, as arrays."""
    values = []
    for log_value in log_values:
        if not math.isfinite(log_value):
            raise ValueError(f"chain integral not finite (log value {log_value})")
        try:
            values.append(math.exp(log_value))
        except OverflowError:
            values.append(math.inf)
    return np.array(values), np.array(log_values)


def _chain_logs(grid: _ChainGrid, factors: ChainFactors, g: int) -> list:
    """The log integrals of the rows of ``factors`` on ``grid``."""
    steps = factors.steps
    count, d = factors.powers.shape
    interp = mapped_interpolation(g)

    # Each level is stored relative to its largest value, so the terms that
    # matter are O(1) and round finely; the offsets, columns of the rows,
    # are added up exactly.
    offsets = [factors.constant.reshape(count, 1)]
    level = steps[0](grid.t[:, :, :g], grid.log_t[:, :, :g])[:, 0]
    # the power of T in F_i on panel 1, powers[0] + sum_{1 <= k < i} (powers[k]
    # + 1), for every level; integers, so the order of the sum is immaterial
    exponents = np.add.accumulate(factors.powers + 1.0, axis=1)
    exponents -= 1.0
    for i in range(1, d):
        offsets.append(_max(level, axis=1, keepdims=True))
        level -= offsets[-1]
        # log F_{i-1} at the mapped points of panels 0..i-1, centred per panel
        logs = level.reshape(count, i, g).copy()
        exponent = exponents[:, i - 1 : i]
        logs[:, 0] -= exponent * grid.log_t[:, 0, :g]
        top = _max(logs, axis=2, keepdims=True)
        logs -= top
        # einsum sums in a fixed order, row by row alike, and spawns no BLAS
        # threads, whose spinning slowed the levels after a threaded product
        # 3-4 fold
        mapped = np.einsum("mc,cp->mp", logs.reshape(count * i, g), interp)
        mapped = mapped.reshape(count, i, g * g)
        mapped += top
        mapped[:, 0] += exponent * grid.log_mapped
        # the mapped points x_a x_b are symmetric, so mapped[:, m] reads as [a, b]
        mapped = mapped.reshape(count, i, g, g)
        terms = steps[i](grid.step[i - 1], grid.log_step[i - 1])
        starts = [g * m * (m + 1) // 2 for m in range(i + 1)]
        for m, first in enumerate(starts):
            # (factor + weight) + log F_{i-1}: the pinned outputs rest on this order
            if m < i:
                block = terms[:, first : first + g]
                block += grid.log_stretch_weight[:, m]
                block += mapped[:, m]
                first += g
            if m:
                block = terms[:, first : first + m * g]
                block += grid.log_node_weight[:, : m * g, None]
                block += level[:, : m * g, None]
        level = _log_sum_exp(terms, starts).reshape(count, (i + 1) * g)

    offsets.append(_max(level, axis=1, keepdims=True))
    level -= offsets[-1]
    final = level + grid.log_node_weight
    final += steps[d](grid.t, np.log(1.0 - grid.t))[:, 0]
    offsets.append(_log_sum_exp(final[:, :, None], [0])[:, 0])
    return [math.fsum(row) for row in np.concatenate(offsets, axis=1).tolist()]


def _log_sum_exp(terms, starts):
    """``log(sum(exp(terms)))`` down axis 1 of a ``(B, rows, cols)`` array,
    over each run of rows that begins at one of ``starts``; returns ``(B,
    len(starts), cols)``.  Overwrites ``terms``."""
    ends = starts[1:] + [terms.shape[1]]
    top = np.empty((terms.shape[0], len(starts), terms.shape[2]))
    for k, (a, b) in enumerate(zip(starts, ends)):
        run = terms[:, a:b]
        _max(run, axis=1, out=top[:, k])
        run -= top[:, k, None]
    np.maximum(terms, _EXP_FLOOR, out=terms)
    np.exp(terms, out=terms)
    out = np.empty_like(top)
    for k, (a, b) in enumerate(zip(starts, ends)):
        _sum(terms[:, a:b], axis=1, out=out[:, k])  # down the run's rows in order
    np.log(out, out=out)
    out += top
    return out


def integrate_region(weights: ProbabilityWeights, logf, spec=None):
    """Iterated Gauss-Legendre integral of ``exp(logf)`` over the region.

    Parameters
    ----------
    weights : ProbabilityWeights
        Defines the nested region via its prefix sums.
    logf : callable
        Log-integrand; takes a ``(nodes**d, d)`` array of points and returns
        their ``nodes**d`` log-values, finite on the open interior.  It is
        called once, with every node.
    spec : QuadratureSpec, optional
        Nodes per axis, used as given; defaults to 64.  The cost is
        ``nodes**d`` evaluations, refused above ``MAX_NODE_EVALS``.

    Returns
    -------
    (float, float)
        The integral and its natural log.  The sum is taken relative to the
        largest log-value, so the log is finite wherever the log-values are,
        and the integral is ``inf`` past ``e^709``.

    Notes
    -----
    The rule is serial and holds every node at once.  With the survival
    integrands, ``tracemalloc`` puts its peak at 104 bytes per node for the
    Gaussian one at ``d = 6`` (89 for the Dirichlet one), so an admitted
    integral peaks below 120 MB.
    """
    spec = spec if spec is not None else QuadratureSpec()
    d = weights.d
    g = spec.nodes
    count = g**d
    if count > MAX_NODE_EVALS:
        raise CostGuardError(
            f"{g}^{d} = {count} node evaluations exceed the {MAX_NODE_EVALS} guard"
        )
    x, w = legendre_rule(g)
    # axis i has upper limit U_i = P_i - (s_1 + ... + s_{i-1}); its node
    # index runs slower than those of the axes after it
    pts = np.empty((count, d))
    wts = np.ones(count)
    running = np.zeros(count)
    for i in range(d):
        digit = np.tile(np.repeat(np.arange(g), g ** (d - 1 - i)), g**i)
        upper = weights.prefix[i] - running
        pts[:, i] = upper * x[digit]
        wts *= upper
        wts *= w[digit]
        running += pts[:, i]
    del running, digit, upper  # freed before logf allocates its own
    logs = np.asarray(logf(pts), dtype=float)
    bad = ~np.isfinite(logs)
    if bad.any():
        where = pts[int(np.argmax(bad))].tolist()
        raise ValueError(f"log-integrand not finite at interior node {where}")
    top = float(logs.max())
    logs -= top
    np.exp(logs, out=logs)
    logs *= wts
    total = float(logs.sum())
    with np.errstate(over="ignore"):
        return total * float(np.exp(top)), top + math.log(total)

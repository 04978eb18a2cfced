"""Numerical integration over the nested prefix-constrained region.

Two integrators share the Gauss-Legendre rule of :func:`legendre_rule`.

* :func:`integrate_chain` is the one the survival routes use.  In the
  cumulated coordinates ``T_i = s_1 + ... + s_i`` the region is ``0 < T_1 <
  ... < T_d`` with ``T_i <= P_i`` (the weight prefix sums), and an
  integrand that is a sum of per-step log factors ``phi_i(T_i - T_{i-1})``
  plus an end term ``psi(T_d)``, a :class:`ChainFactors`, makes the
  ``d``-fold integral a ``d``-step forward recursion of an integral
  operator.  The recursion is discretised by a Nystrom rule on panels split
  at the prefix sums, in log space; each target's sum runs over its own
  terms only, at a cost polynomial in the nodes per panel.
* :func:`integrate_region` is the iterated (tensor-product) rule with
  variable upper limits ``U_i = P_i - (s_1 + ... + s_{i-1})``, for any
  log-integrand at ``G^d`` evaluations.  It is a short serial reference
  rule: it evaluates every node in one call, and checks the chain rule at
  small ``d``.  No survival route calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

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


class CostGuardError(RuntimeError):
    """A requested computation exceeds the configured cost bounds."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre nodes, ``2 <= nodes <= 128``.

    For the chain rule of the survival routes, ``nodes`` is the number per
    panel, of which at least ``MIN_PANEL_NODES`` are used; its cost grows as
    ``d^3 nodes^2``.  For :func:`integrate_region` it is the number per
    axis, exactly, at a cost of ``nodes**d`` evaluations held in memory at
    once.
    """

    nodes: int = 64

    def __post_init__(self):
        if not MIN_NODES <= self.nodes <= MAX_NODES:
            raise ValueError(f"nodes must be in [{MIN_NODES}, {MAX_NODES}], got {self.nodes}")


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
    if not MIN_NODES <= nodes <= MAX_NODES:
        raise ValueError(f"nodes must be in [{MIN_NODES}, {MAX_NODES}], got {nodes}")
    g = nodes
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
    ``(-1)^c sqrt(x_c (1 - x_c) w_c)`` of the Gauss-Legendre nodes.
    """
    x, w = legendre_rule(nodes)
    bary = np.sqrt(x * (1.0 - x) * w)
    bary[1::2] *= -1.0
    points = np.multiply.outer(x, x).ravel()
    diff = points - x[:, None]
    hits = diff == 0.0
    diff[hits] = 1.0
    terms = bary[:, None] / diff
    out = terms / terms.sum(axis=0)
    for c, col in zip(*np.nonzero(hits)):  # a point on a node takes its value
        out[:, col] = 0.0
        out[c, col] = 1.0
    out.setflags(write=False)
    return out


class ChainFactors(NamedTuple):
    """A log-integrand in the cumulated coordinates ``T_i = s_1 + ... + s_i``.

    Its value is ``constant + sum_i steps[i](s_i, ln s_i) + end(T_d)``, the
    form :func:`integrate_chain` integrates.  As its spacing ``u`` goes to 0,
    ``steps[i]`` behaves as ``powers[i] * ln u`` plus a smooth function (a
    power of 0 is a smooth factor).  The callables are elementwise, for
    arrays of any shape, and return new arrays.
    """

    constant: float
    steps: tuple
    end: Callable
    powers: tuple


@dataclass(frozen=True, eq=False)
class _ChainGrid:
    """The chain rule's fixed arrays for one set of panels.

    Panel ``m`` is ``[P_{m-1}, P_m]`` with ``G`` nodes ``t``; a level's
    values are indexed ``m*G + b``.  Column ``b`` of ``step[m]`` lists the
    steps ``u = T - T'`` of the terms of the target ``t[m, b]``: first the
    ``G`` points of the panel's own rule mapped to ``[P_{m-1}, t[m, b]]``,
    then every node of the full panels ``0..m-1``.  ``log_step[m]`` holds
    their logs, ``log_stretch_weight[m]`` the log rule weights of the mapped
    points; a full-panel node weighs its ``log_node_weight``.  Sums run down
    the columns, which numpy reduces faster than rows.
    """

    t: np.ndarray                   # (d*G,) nodes
    log_t: np.ndarray               # (d*G,)
    log_node_weight: np.ndarray     # (d*G,) log of the rule weight of each node
    step: tuple                     # d arrays, ((m+1)*G, G) for panel m
    log_step: tuple                 # the same shapes
    log_stretch_weight: np.ndarray  # (d, G, G)
    log_mapped: np.ndarray          # (G*G,) log of the mapped points of panel 0


@lru_cache(maxsize=8)
def _chain_grid(prefix: tuple, g: int) -> _ChainGrid:
    x, w = legendre_rule(g)
    d = len(prefix)
    upper = np.array(prefix)
    lower = np.concatenate(([0.0], upper[:-1]))
    width = upper - lower
    scaled = np.multiply.outer(width, x)                   # (d, G): h_m x_b
    t = (lower[:, None] + scaled).ravel()
    log_node_weight = np.log(np.multiply.outer(width, w)).ravel()
    tail = np.multiply.outer(width, 1.0 - x)              # (d, G): h_j (1 - x_a)
    step = []
    for m in range(d):
        # mapped points of panel m: T - T' = h_m x_b (1 - x_a), weight h_m x_b w_a
        stretch = np.multiply.outer(1.0 - x, scaled[m])
        # full panels j < m: T - T' = (P_{m-1} - P_j) + h_j (1 - x_a) + h_m x_b
        full = ((lower[m] - upper[:m])[:, None] + tail[:m]).reshape(m * g, 1) + scaled[m]
        step.append(np.concatenate([stretch, full]))
    grid = _ChainGrid(
        t=t,
        log_t=np.log(t),
        log_node_weight=log_node_weight,
        step=tuple(step),
        log_step=tuple(np.log(s) for s in step),
        log_stretch_weight=np.log(w)[:, None] + np.log(scaled)[:, None, :],
        log_mapped=np.log(np.multiply.outer(scaled[0], x)).ravel(),
    )
    for value in vars(grid).values():
        for array in value if isinstance(value, tuple) else (value,):
            array.setflags(write=False)
    return grid


def integrate_chain(weights: ProbabilityWeights, factors: ChainFactors, spec=None):
    """Integral of ``exp(constant + sum_i steps[i](T_i - T_{i-1}) + end(T_d))``
    over ``0 < T_1 < ... < T_d``, ``T_i <= P_i`` (so ``T_0 = 0``).

    Parameters
    ----------
    weights : ProbabilityWeights
        Defines the region via its prefix sums ``P_i``.
    factors : ChainFactors
        The log-integrand: ``constant``, ``d`` step factors ``steps[i](u,
        log_u)`` of the spacings ``u > 0`` (with ``log_u = ln u``), the end
        factor ``end(T)`` of ``T_d``, and the ``powers`` of the steps' log
        singularities at ``u = 0``.
    spec : QuadratureSpec, optional
        Nodes per panel; ``max(spec.nodes, MIN_PANEL_NODES)`` are used.
        Defaults to 64.

    Returns
    -------
    (float, float)
        The integral and its natural log.  The log is finite wherever the
        factors are, and the integral is ``inf`` past ``e^709``.

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
    T`` is interpolated instead.  Each panel of a level is one log-sum-exp
    over the terms of its targets.  Level ``i + 1`` evaluates ``i (i + 3) /
    2`` blocks of ``G x G`` terms, so the cost is about ``d^3 G^2 / 6``
    factor evaluations and ``d^2 G^3 / 2`` multiply-adds; memory ``O(d^2 G^2
    + G^3)``.
    """
    spec = spec if spec is not None else QuadratureSpec()
    d = weights.d
    steps = factors.steps
    if len(steps) != d:
        raise ValueError(f"need {d} step factors, got {len(steps)}")
    g = max(spec.nodes, MIN_PANEL_NODES)
    grid = _chain_grid(tuple(weights.prefix.tolist()), g)
    interp = mapped_interpolation(g)

    # Each level is stored relative to its largest value, so the terms that
    # matter are O(1) and round finely; the offsets are added up exactly.
    offsets = [float(factors.constant)]
    level = np.asarray(steps[0](grid.t[:g], grid.log_t[:g]), dtype=float)
    exponent = float(factors.powers[0])
    for i in range(1, d):
        offsets.append(float(level.max()))
        level -= offsets[-1]
        # log F_{i-1} at the mapped points of panels 0..i-1, centred per panel
        logs = level.reshape(i, g).copy()
        logs[0] -= exponent * grid.log_t[:g]
        top = logs.max(axis=1, keepdims=True)
        logs -= top
        # einsum sums in a fixed order, and spawns no BLAS threads, whose
        # spinning slowed the levels after a threaded product 3-4 fold
        mapped = np.einsum("mc,cp->mp", logs, interp)
        mapped += top
        mapped[0] += exponent * grid.log_mapped
        out = np.empty((i + 1) * g)
        for m in range(i + 1):
            base = m * g
            start = g if m == i else 0  # the newest panel has no stretch below
            terms = steps[i](grid.step[m][start:], grid.log_step[m][start:])
            if m < i:
                # the mapped points x_a x_b are symmetric, so mapped[m] reads as [a, b]
                terms[:g] += grid.log_stretch_weight[m]
                terms[:g] += mapped[m].reshape(g, g)
            full = terms[g - start :]
            full += grid.log_node_weight[:base, None]
            full += level[:base, None]
            out[base : base + g] = _log_sum_exp(terms)
        level = out
        exponent += factors.powers[i] + 1.0

    offsets.append(float(level.max()))
    level -= offsets[-1]
    final = level + grid.log_node_weight
    final += factors.end(grid.t)
    offsets.append(float(_log_sum_exp(final[:, None])[0]))
    log_value = math.fsum(offsets)
    if not math.isfinite(log_value):
        raise ValueError(f"chain integral not finite (log value {log_value})")
    try:
        return math.exp(log_value), log_value
    except OverflowError:
        return math.inf, log_value


def _log_sum_exp(terms):
    """Column-wise ``log(sum(exp(terms)))``; overwrites ``terms``."""
    top = terms.max(axis=0)
    terms -= top
    np.maximum(terms, _EXP_FLOOR, out=terms)
    np.exp(terms, out=terms)
    out = np.log(terms.sum(axis=0))
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

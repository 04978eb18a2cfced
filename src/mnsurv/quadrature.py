"""Numerical integration over the nested prefix-constrained region.

Two integrators share the Gauss-Legendre rule of :func:`legendre_rule`.

* :func:`integrate_chain` is the one the survival routes use.  In the
  cumulated coordinates ``T_i = s_1 + ... + s_i`` the region is ``0 < T_1 <
  ... < T_d`` with ``T_i <= P_i`` (the weight prefix sums), and an
  integrand that is a sum of per-step log factors ``phi_i(T_i - T_{i-1})``
  plus an end term ``psi(T_d)`` makes the ``d``-fold integral a ``d``-step
  forward recursion of an integral operator.  The recursion is discretised
  by a Nystrom rule on panels split at the prefix sums, in log space, at a
  cost polynomial in the nodes per panel.
* :func:`integrate_region` is the iterated (tensor-product) rule with
  variable upper limits ``U_i = P_i - (s_1 + ... + s_{i-1})``, for any
  log-integrand at ``G^d`` evaluations.  It is kept as a general integrator
  and as an independent check of the chain rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ProbabilityWeights

__all__ = [
    "QuadratureSpec",
    "CostGuardError",
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

# integrate_region refuses more than this many integrand evaluations.
# The guard bounds time only: nodes are streamed in blocks, so memory is a
# fixed per-block amount whatever the node count.
MAX_NODE_EVALS = 10**8

# Most nodes per block of the streamed tensor product; a block holds
# ``_BLOCK_NODES // nodes`` whole outer prefixes.  Fixing it fixes the
# reduction order, so results are reproducible for a given node count.
_BLOCK_NODES = 1 << 16

# The chain rule's log-weight of a term that is not in a target's sum.  It
# is finite, so no arithmetic meets -inf, and no real term comes near it.
_MASKED = -1e300

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
    axis, exactly, at a cost of ``nodes**d``.
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


@dataclass(frozen=True, eq=False)
class _ChainGrid:
    """The chain rule's fixed arrays for one set of panels.

    Panel ``m`` is ``[P_{m-1}, P_m]`` with ``G`` nodes ``t``; a level's
    values are indexed ``m*G + b``.  Column ``m*G + b`` of the square arrays
    lists the terms of the target ``t[m, b]``: first the ``G`` points of the
    panel's own rule mapped to ``[P_{m-1}, t[m, b]]``, then every node of the
    full panels ``0..d-2`` (masked where the panel is not below ``m``).
    ``step`` holds each term's step ``u = T - T'`` (1 where masked) and
    ``log_step`` its log; ``log_weight`` the log of the term's rule weight,
    ``_MASKED`` where masked.  Sums run down the columns, which numpy
    reduces faster than rows.
    """

    t: np.ndarray                # (d*G,) nodes
    log_t: np.ndarray            # (d*G,)
    log_node_weight: np.ndarray  # (d*G,) log of the rule weight of each node
    step: np.ndarray             # (d*G, d*G)
    log_step: np.ndarray         # (d*G, d*G)
    log_weight: np.ndarray       # (d*G, d*G)
    log_mapped: np.ndarray       # (G*G,) log of the mapped points of panel 0


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

    # mapped points of panel m: T - T' = h_m x_b (1 - x_a), weight h_m x_b w_a
    part_step = np.multiply.outer(1.0 - x, scaled).reshape(g, d * g)
    part_weight = np.add.outer(np.log(w), np.log(scaled)).reshape(g, d * g)
    # full panels j < m: T - T' = (P_{m-1} - P_j) + h_j (1 - x_a) + h_m x_b
    tail = np.multiply.outer(width[:-1], 1.0 - x)         # (d-1, G): h_j (1 - x_a)
    full_step = (lower - upper[:-1, None])[:, None, :, None] + tail[:, :, None, None]
    full_step = full_step + scaled
    below = (np.arange(d - 1)[:, None] < np.arange(d))[:, None, :, None]
    full_step = np.where(below, full_step, 1.0).reshape((d - 1) * g, d * g)
    full_weight = np.where(below, log_node_weight[: (d - 1) * g].reshape(d - 1, g, 1, 1), _MASKED)
    full_weight = np.broadcast_to(full_weight, (d - 1, g, d, g)).reshape((d - 1) * g, d * g)
    step = np.concatenate([part_step, full_step])
    grid = _ChainGrid(
        t=t,
        log_t=np.log(t),
        log_node_weight=log_node_weight,
        step=step,
        log_step=np.log(step),
        log_weight=np.concatenate([part_weight, full_weight]),
        log_mapped=np.log(np.multiply.outer(scaled[0], x)).ravel(),
    )
    for array in vars(grid).values():
        array.setflags(write=False)
    return grid


def integrate_chain(weights: ProbabilityWeights, constant, steps, end, spec=None, powers=None):
    """Integral of ``exp(constant + sum_i steps[i](T_i - T_{i-1}) + end(T_d))``
    over ``0 < T_1 < ... < T_d``, ``T_i <= P_i`` (so ``T_0 = 0``).

    Parameters
    ----------
    weights : ProbabilityWeights
        Defines the region via its prefix sums ``P_i``.
    constant : float
        Added to the log-integrand.
    steps : sequence of d callables
        ``steps[i](u, log_u)`` is the log factor of step ``i`` at the
        spacings ``u > 0`` (with ``log_u = ln u``), elementwise, for arrays
        of any shape; it returns a new array.
    end : callable
        ``end(T)``, the log factor of ``T_d``, elementwise.
    spec : QuadratureSpec, optional
        Nodes per panel; ``max(spec.nodes, MIN_PANEL_NODES)`` are used.
        Defaults to 64.
    powers : sequence of d floats, optional
        ``steps[i](u)`` behaves as ``powers[i] * ln u`` plus a smooth
        function as ``u -> 0`` (default 0, a smooth factor).

    Returns
    -------
    (float, float)
        The integral and its natural log.

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
    T`` is interpolated instead.  Every level is one log-sum-exp over the
    terms of each target.  Cost: about ``d^3 G^2 / 3`` factor evaluations
    and ``d^2 G^3 / 2`` multiply-adds; memory ``O(d^2 G^2 + G^3)``.
    """
    spec = spec if spec is not None else QuadratureSpec()
    d = weights.d
    if len(steps) != d:
        raise ValueError(f"need {d} step factors, got {len(steps)}")
    powers = [0.0] * d if powers is None else [float(a) for a in powers]
    g = max(spec.nodes, MIN_PANEL_NODES)
    grid = _chain_grid(tuple(weights.prefix.tolist()), g)
    interp = mapped_interpolation(g)

    # Each level is stored relative to its largest value, so the terms that
    # matter are O(1) and round finely; the offsets are added up exactly.
    offsets = [float(constant)]
    level = np.asarray(steps[0](grid.t[:g], grid.log_t[:g]), dtype=float)
    exponent = powers[0]
    for i in range(1, d):
        offsets.append(float(level.max()))
        level -= offsets[-1]
        size = (i + 1) * g
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
        terms = np.add(
            steps[i](grid.step[:size, :size], grid.log_step[:size, :size]),
            grid.log_weight[:size, :size],
        )
        # the mapped points x_a x_b are symmetric, so mapped[m] reads as [a, b]
        terms[:g, : i * g] += mapped.reshape(i, g, g).transpose(1, 0, 2).reshape(g, i * g)
        terms[:g, i * g :] = _MASKED  # the newest panel has no stretch below
        terms[g:] += level[:, None]
        level = _log_sum_exp(terms)
        exponent += powers[i] + 1.0

    offsets.append(float(level.max()))
    level -= offsets[-1]
    final = level + grid.log_node_weight
    final += end(grid.t)
    offsets.append(float(_log_sum_exp(final[:, None])[0]))
    log_value = math.fsum(offsets)
    if not math.isfinite(log_value):
        raise ValueError(f"chain integral not finite (log value {log_value})")
    return math.exp(log_value), log_value


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
        Log-integrand; takes a tuple of ``d`` broadcastable coordinate
        columns and returns log-values of their broadcast shape, finite on
        the open interior.  A block of nodes comes as ``(rows, 1)`` columns
        for the outer coordinates (axes ``1..d-1``) and a ``(rows, G)``
        column for the innermost one, so work on an outer coordinate alone
        can be done once per row.  The columns belong to the integrator and
        are reused across blocks; ``logf`` must not modify or keep them.
    spec : QuadratureSpec, optional
        Nodes per axis, used as given; defaults to 64.  The cost is
        ``nodes**d`` evaluations, refused above ``MAX_NODE_EVALS``.

    Returns
    -------
    (float, float)
        The integral and its natural log.  Nodes are split into fixed
        blocks of whole outer prefixes (at most ``_BLOCK_NODES`` nodes),
        evaluated in order.  Each block is reduced with ``np.sum`` and the
        block partials with the exact ``math.fsum``, so results are
        bit-reproducible for a given node count.

        Values are exponentiated relative to ``logf(p)``; a block that
        overflows against it is taken relative to its own largest log-value,
        and the partials are brought to the largest scale before the sum.
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
    shift = float(logf(tuple(weights.p.reshape(1, d).T))[0])

    # A block is a run of outer prefixes (axes 1..d-1) times all g innermost
    # nodes; each prefix's coordinates and partial weight are built once.
    # One node-sized buffer is reused block after block, so the heap does
    # not shrink after each block only to be faulted back in.
    outer = (g,) * (d - 1)
    rows_total = g ** (d - 1)
    rows_per_block = min(_BLOCK_NODES // g, rows_total)
    inner, wts, terms = np.empty((3, rows_per_block, g))

    def block_sum(start):
        rows = np.arange(start, min(start + rows_per_block, rows_total))
        digits = np.unravel_index(rows, outer) if d > 1 else ()
        cols = []
        row_wts = np.ones(rows.size)
        running_sum = np.zeros(rows.size)
        for i, digit in enumerate(digits):
            upper = weights.prefix[i] - running_sum
            si = upper * x[digit]
            cols.append(si[:, None])
            running_sum += si
            row_wts = row_wts * upper * w[digit]
        upper = weights.prefix[d - 1] - running_sum
        cols.append(np.multiply.outer(upper, x, out=inner[: rows.size]))
        block_wts = np.multiply.outer(row_wts * upper, w, out=wts[: rows.size])
        logs = np.asarray(logf(tuple(cols)), dtype=float)
        bad = ~np.isfinite(logs)
        if np.any(bad):
            shape = block_wts.shape
            node = np.unravel_index(int(np.argmax(np.broadcast_to(bad, shape))), shape)
            where = [float(np.broadcast_to(col, shape)[node]) for col in cols]
            raise ValueError(f"log-integrand not finite at interior node {where}")
        block_terms = np.subtract(logs, shift, out=terms[: rows.size])
        with np.errstate(over="ignore"):
            np.exp(block_terms, out=block_terms)
        block_terms *= block_wts
        partial = float(np.sum(block_terms))
        if partial < math.inf:
            return partial, shift
        top = float(np.max(logs))  # exp overflowed: rescale by the block's own maximum
        return float(np.sum(np.exp(logs - top) * block_wts)), top

    partials = [block_sum(start) for start in range(0, rows_total, rows_per_block)]
    # with no overflow every scale is ``shift`` and each factor is exp(0) = 1
    top = max(scale for _, scale in partials)
    total = math.fsum([value * math.exp(scale - top) for value, scale in partials])
    log_value = top + math.log(total) if total > 0.0 else -math.inf
    return total * math.exp(top), log_value

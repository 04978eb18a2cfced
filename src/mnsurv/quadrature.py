"""Numerical integration over the nested prefix-constrained region.

Deterministic integration is iterated Gauss-Legendre with variable upper
limits ``U_i = prefix_i - (s_1 + ... + s_{i-1})``; the open rule keeps every
node strictly inside the region so log-singular boundaries are never touched.
Integrands are consumed in log space and rescaled by a single interior
reference value, so the machinery survives integrands whose linear-scale
values overflow or underflow.

The Monte Carlo integrator samples the axes sequentially, each uniform on its
conditional interval ``[0, U_i]``, and weights every draw by the exact
sampling Jacobian ``prod_i U_i``.
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
    "integrate_region",
    "integrate_region_mc",
    "MAX_NODE_EVALS",
    "MIN_NODES",
    "MAX_NODES",
    "MIN_REPLICATIONS",
]

# Accepted Gauss-Legendre nodes per axis, and the smallest Monte Carlo sample.
MIN_NODES, MAX_NODES = 2, 128
MIN_REPLICATIONS = 1000

# Deterministic integration refuses more than this many integrand evaluations.
# The guard bounds time only: nodes are streamed in blocks, so memory is a
# fixed per-block amount whatever the node count.
MAX_NODE_EVALS = 10**8

# Most nodes per block of the streamed tensor product; a block holds
# ``_BLOCK_NODES // nodes`` whole outer prefixes.  Fixing it fixes the
# reduction order, so results are reproducible for a given node count.
_BLOCK_NODES = 1 << 16

_MC_CHUNK = 1 << 16


class CostGuardError(RuntimeError):
    """A requested computation exceeds the configured cost bounds."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of an integration run.

    Parameters
    ----------
    nodes : int
        Gauss-Legendre nodes per axis, ``2 <= nodes <= 128``.  Cost grows as
        ``nodes**d``.
    mode : str
        ``"deterministic"`` or ``"monte-carlo"``.
    replications : int, optional
        Monte Carlo sample size, ``>= 1000``; required in MC mode.
    seed : int, optional
        RNG seed; required in MC mode, ignored otherwise.
    """

    nodes: int = 48
    mode: str = "deterministic"
    replications: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("deterministic", "monte-carlo"):
            raise ValueError(f"unknown quadrature mode {self.mode!r}")
        if not MIN_NODES <= self.nodes <= MAX_NODES:
            raise ValueError(f"nodes must be in [{MIN_NODES}, {MAX_NODES}], got {self.nodes}")
        if self.mode == "monte-carlo":
            if self.replications is None or self.replications < MIN_REPLICATIONS:
                raise ValueError(
                    f"monte-carlo mode requires replications >= {MIN_REPLICATIONS}"
                )
            if self.seed is None:
                raise ValueError("monte-carlo mode requires an explicit seed")


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


def integrate_region(weights: ProbabilityWeights, logf, spec=None, s_ref=None):
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
        Deterministic-mode parameters; defaults to 48 nodes per axis.
    s_ref : array_like, optional
        Interior reference point for the log-space shift; defaults to ``p``.
        It is passed as ``(1,)`` columns.  The computed value is invariant
        to this choice up to roundoff.

    Returns
    -------
    (float, float)
        The integral and its natural log.  Nodes are visited in a fixed
        order, in blocks of whole outer prefixes (at most ``_BLOCK_NODES``
        nodes).  Each block is reduced with ``np.sum`` and the block
        partials with ``math.fsum``, so results are reproducible for a given
        node count.
    """
    spec = spec if spec is not None else QuadratureSpec()
    if spec.mode != "deterministic":
        raise ValueError("integrate_region requires a deterministic-mode spec")
    d = weights.d
    g = spec.nodes
    count = g**d
    if count > MAX_NODE_EVALS:
        raise CostGuardError(
            f"{g}^{d} = {count} node evaluations exceed the {MAX_NODE_EVALS} guard"
        )
    x, w = legendre_rule(g)
    ref = weights.p if s_ref is None else np.asarray(s_ref, dtype=float)
    shift = float(logf(tuple(ref.reshape(1, d).T))[0])

    # A block is a run of outer prefixes (axes 1..d-1) times all g innermost
    # nodes; each prefix's coordinates and partial weight are built once.
    # The node-sized arrays are allocated once per integral and reused, so
    # the heap does not shrink after each block only to be faulted back in.
    outer = (g,) * (d - 1)
    rows_total = g ** (d - 1)
    rows_per_block = min(_BLOCK_NODES // g, rows_total)
    inner, wts, terms = np.empty((3, rows_per_block, g))
    partials = []
    for start in range(0, rows_total, rows_per_block):
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
        np.exp(block_terms, out=block_terms)
        block_terms *= block_wts
        partials.append(float(np.sum(block_terms)))
    total = math.fsum(partials)
    if total > 0.0:
        log_value = shift + math.log(total)
    else:
        log_value = -math.inf
    return total * math.exp(shift), log_value


def integrate_region_mc(weights: ProbabilityWeights, logf, spec: QuadratureSpec):
    """Monte Carlo integral of ``exp(logf)`` over the region.

    Samples each axis uniformly on its conditional interval and weights by
    the product of interval lengths, which is the exact density reciprocal
    of the sampling scheme.  ``logf`` takes coordinate columns as in
    :func:`integrate_region`, here ``d`` arrays of one sample chunk each.
    Fully determined by ``(seed, replications)``.

    Returns
    -------
    (float, float)
        Mean estimate and its standard error.
    """
    if spec.mode != "monte-carlo":
        raise ValueError("integrate_region_mc requires a monte-carlo-mode spec")
    d = weights.d
    total = spec.replications
    rng = np.random.default_rng(spec.seed)
    shift = float(logf(tuple(weights.p.reshape(1, d).T))[0])

    done = 0
    sum1 = 0.0
    sum2 = 0.0
    while done < total:
        m = min(_MC_CHUNK, total - done)
        cols = []
        jac = np.ones(m)
        acc = np.zeros(m)
        for i in range(d):
            upper = weights.prefix[i] - acc
            si = upper * rng.random(m)
            cols.append(si)
            acc += si
            jac *= upper
        vals = np.exp(np.asarray(logf(tuple(cols)), dtype=float) - shift) * jac
        sum1 += math.fsum(vals.tolist())
        sum2 += math.fsum((vals * vals).tolist())
        done += m

    mean = sum1 / total
    var = max(sum2 - total * mean * mean, 0.0) / (total - 1)
    scale = math.exp(shift)
    return scale * mean, scale * math.sqrt(var / total)

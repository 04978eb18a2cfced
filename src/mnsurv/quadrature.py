"""Numerical integration over the nested prefix-constrained region.

Integration is iterated Gauss-Legendre with variable upper limits
``U_i = prefix_i - (s_1 + ... + s_{i-1})``; the open rule keeps every node
strictly inside the region so log-singular boundaries are never touched.
Integrands are consumed in log space and rescaled by their value at ``p``
(by a block's own maximum where that overflows), so the machinery survives
integrands whose linear-scale values overflow or underflow.  The blocks of
one integral are evaluated concurrently on a shared thread pool; their partials are summed exactly,
so values do not depend on the thread count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ProbabilityWeights

__all__ = [
    "QuadratureSpec",
    "CostGuardError",
    "legendre_rule",
    "integrate_region",
    "MAX_NODE_EVALS",
    "MIN_NODES",
    "MAX_NODES",
]

# Accepted Gauss-Legendre nodes per axis.
MIN_NODES, MAX_NODES = 2, 128

# Integration refuses more than this many integrand evaluations.
# The guard bounds time only: nodes are streamed in blocks, so memory is a
# fixed per-block amount per thread whatever the node count.
MAX_NODE_EVALS = 10**8

# Most nodes per block of the streamed tensor product; a block holds
# ``_BLOCK_NODES // nodes`` whole outer prefixes.  Fixing it fixes the
# reduction order, so results are reproducible for a given node count.
_BLOCK_NODES = 1 << 16

# Threads that evaluate blocks after the first: the CPU affinity mask, so
# ``taskset`` restricts it.  With one, every block runs on the caller.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask outside Linux
    _WORKERS = os.cpu_count() or 1

# Created on first use, under the lock, and shared by every integral; its
# threads see ``_pool_thread.active`` set.
_pool = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()


def _mark_pool_thread():
    _pool_thread.active = True


def _block_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: it costs ~10 ms, which single-block callers skip
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                _WORKERS, thread_name_prefix="mnsurv-quadrature", initializer=_mark_pool_thread
            )
        return _pool


def _forget_pool():
    """A forked child inherits the pool without its threads: start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


class CostGuardError(RuntimeError):
    """A requested computation exceeds the configured cost bounds."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre nodes per axis, ``2 <= nodes <= 128``; cost grows as ``nodes**d``."""

    nodes: int = 48

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
        ``logf`` may be called from several threads at once.
    spec : QuadratureSpec, optional
        Nodes per axis; defaults to 48.

    Returns
    -------
    (float, float)
        The integral and its natural log.  Nodes are split into fixed
        blocks of whole outer prefixes (at most ``_BLOCK_NODES`` nodes).
        Block 0 is evaluated on the calling thread; when two or more blocks
        remain, they are evaluated concurrently in strided shares on a
        shared thread pool, one per CPU the process may run on.  Each block
        is reduced with ``np.sum`` and the block partials with the exact
        ``math.fsum``, which does not depend on their order, so results are
        bit-reproducible for a given node count whatever the thread count.
        A failure is reported from the lowest-indexed failing block, as if
        the blocks had run in order.

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
    # Each share of blocks owns one node-sized buffer, reused block after
    # block, so the heap does not shrink after each block only to be
    # faulted back in.
    outer = (g,) * (d - 1)
    rows_total = g ** (d - 1)
    rows_per_block = min(_BLOCK_NODES // g, rows_total)

    def block_sum(start, buffer):
        inner, wts, terms = buffer
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

    def block_sums(starts, buffer):
        """Partials of the blocks at ``starts``, in order; the first
        exception raised takes its block's place and ends the list."""
        sums = []
        for start in starts:
            try:
                sums.append(block_sum(start, buffer))
            except Exception as exc:
                sums.append(exc)
                break
        return sums

    buffer = np.empty((3, rows_per_block, g))
    # Block 0 runs first and alone: if it fails no thread is started, and
    # lazy caches of logf are filled before any concurrent call.
    partials = [block_sum(0, buffer)]
    rest = range(rows_per_block, rows_total, rows_per_block)
    shares = min(_WORKERS, len(rest))
    if shares > 1 and not getattr(_pool_thread, "active", False):
        buffers = [buffer] + [np.empty_like(buffer) for _ in range(shares - 1)]
        futures = [
            _block_pool().submit(block_sums, rest[j::shares], buffers[j])
            for j in range(shares)
        ]
        results = [future.result() for future in futures]
    else:
        # One CPU, or a logf nested in a pool thread: waiting on the pool
        # from inside it could deadlock, so run every block here.
        shares, results = 1, [block_sums(rest, buffer)]
    ordered = [None] * len(rest)
    for j, sums in enumerate(results):
        ordered[j : j + shares * len(sums) : shares] = sums
    # A share stops at its first failure, so in block order the first
    # entry that is not a partial is the lowest-indexed failure.
    for value in ordered:
        if isinstance(value, Exception):
            raise value
    # with no overflow every scale is ``shift`` and each factor is exp(0) = 1
    partials += ordered
    top = max(scale for _, scale in partials)
    total = math.fsum([value * math.exp(scale - top) for value, scale in partials])
    log_value = top + math.log(total) if total > 0.0 else -math.inf
    return total * math.exp(top), log_value

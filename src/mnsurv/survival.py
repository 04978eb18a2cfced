"""The four evaluation routes for the joint survival probability.

* :func:`survival_exact` runs the sequential-binomial recursion: the
  cumulated counts form a Markov chain with binomial steps, so the value is a
  d-step forward recursion on the distribution of ``S_i`` over ``0..n``,
  truncated below ``kappa_i`` after each step, at ``O(d n^2)`` cost.  It
  refuses instances whose transition matrices exceed
  ``MAX_TRANSITION_BYTES``.
* :func:`survival_dirichlet` integrates the Dirichlet-type integrand over
  the nested region (valid whenever every gap ``j_i >= 1``).
* :func:`survival_gaussian` integrates the equivalent Gaussian-representation
  integrand (valid whenever every ``J_i >= 1``).

  Both integral routes use the chain rule of
  :func:`mnsurv.quadrature.integrate_chain` on the integrand's factors,
  and refuse a row past its cost guard.
* :func:`survival_mc` simulates the defining order-statistics event.

:func:`compare_routes` runs whichever routes apply, collects diagnostics and
pairwise discrepancies, and never raises on mere inapplicability.
:func:`compare_batch` does the same for a batch of instances, with one
batched chain integral per route for each group of rows of one reduced
``d``; :func:`compare_routes` is its batch of one.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

# delta_n, gamma_tilde, the two log-integrands and integrate_region are not
# called here: the benchmark's tracer (bench/tracing.py) wraps them in this
# module.
from .expansions import (
    delta_n,
    dirichlet_factors,
    expansion_context,
    gamma_tilde,
    gaussian_factors,
    log_dirichlet_integrand,
    log_gaussian_integrand,
)
from .model import SurvivalInstance, build_instance, reduce_thresholds
from .quadrature import (
    CostGuardError,
    QuadratureSpec,
    chain_evaluations,
    integrate_chain,
    integrate_region,
)

__all__ = [
    "MAX_TRANSITION_BYTES",
    "MIN_REPLICATIONS",
    "McResult",
    "RouteReport",
    "survival_exact",
    "survival_dirichlet",
    "survival_gaussian",
    "survival_mc",
    "compare_routes",
    "compare_batch",
]

# The exact route refuses instances whose d transition matrices, 8 d (n+1)^2
# bytes, exceed this; d = 6 at n = 1000 takes 48 MB.
MAX_TRANSITION_BYTES = 200 * 10**6

# The smallest Monte Carlo sample.
MIN_REPLICATIONS = 1000

# Uniforms per simulation chunk, 16 MB; the previous chunk lives on while the
# next is drawn, so two are held at once.  A chunk holds one replication or
# more, so Monte Carlo refuses n above this, and a count fits in int32.
_MC_CHUNK_VALUES = 2_000_000

DETERMINISTIC_ROUTES = ("exact", "dirichlet", "gaussian")


def survival_exact(instance: SurvivalInstance) -> float:
    """Exact survival probability by the sequential-binomial recursion.

    The cumulated counts ``S_i = X_1 + ... + X_i`` form a Markov chain whose
    step from ``S_{i-1} = s`` is ``Binomial(n - s, p_i / (p_i + ... +
    p_{d+1}))``.  A length-``(n+1)`` vector holding ``P(S_i = s, S_1 >=
    kappa_1, ..., S_i >= kappa_i)`` is multiplied by one transition matrix
    per step and zeroed below ``kappa_i``; after each step it is rescaled by
    a power of two so that its maximum lies in ``[1/2, 1)``, and the binary
    exponents are added up, so deep tails keep their relative accuracy.
    Every term is nonnegative, so nothing cancels.  The matrices depend on
    ``(n, p)`` only and are cached, so consecutive calls on one ``(n, p)``
    (a sweep over thresholds) build them once.
    """
    n, d = instance.n, instance.d
    kappa = instance.kappa
    if instance.impossible:
        return 0.0
    if kappa[-1] == 0:
        return 1.0
    size = 8 * d * (n + 1) ** 2
    if size > MAX_TRANSITION_BYTES:
        raise CostGuardError(
            f"transition matrices of {size} bytes (8 d (n+1)^2, n = {n}, d = {d}) "
            f"exceed {MAX_TRANSITION_BYTES} bytes"
        )
    mats = _transition_matrices(n, tuple(instance.weights.p_full.tolist()))
    f = np.zeros(n + 1)
    f[0] = 1.0
    exponent = 0
    for mat, kap in zip(mats, kappa.tolist()):
        # einsum sums in a fixed order; a BLAS product's order can depend
        # on its thread count, and with it the last bits
        f = np.einsum("s,st->t", f, mat)
        f[:kap] = 0.0
        e = math.frexp(float(f.max()))[1]  # 0 once every entry has underflowed
        np.ldexp(f, -e, out=f)
        exponent += e
    return _clamp_probability(math.ldexp(math.fsum(f.tolist()), exponent))


@functools.lru_cache(maxsize=1)
def _transition_matrices(n: int, p_full: tuple) -> np.ndarray:
    """``M[i, s, t] = P(S_{i+1} = t | S_i = s)``, shape ``(d, n+1, n+1)``.

    Row ``s`` of step ``i`` is the pmf of ``Binomial(n - s, q_i)`` shifted
    right by ``s``, with ``q_i = p_i / R_i`` and ``1 - q_i = R_{i+1} / R_i``
    for the tail sums ``R_i = p_i + ... + p_{d+1}``.  Rows are built from
    the last up by Pascal's rule, ``M[s, t] = (1 - q) M[s+1, t+1] + q M[s+1,
    t]``, which adds nonnegative terms only: each entry keeps a relative
    error of a few ulps per trial, with no large logarithms to cancel.  One
    matrix product per row applies the rule to every step at once.
    """
    p_full = np.asarray(p_full)
    tail = np.cumsum(p_full[::-1])[::-1]
    weights = np.stack([p_full[:-1] / tail[:-1], tail[1:] / tail[:-1]], axis=1)[:, :, None]
    d = weights.shape[0]
    # one zero column past t = n feeds the (1 - q) term of the last column
    mats = np.zeros((d, n + 1, n + 2))
    mats[:, n, n] = 1.0
    pairs = np.lib.stride_tricks.sliding_window_view(mats, 2, axis=2)  # (M[s, t], M[s, t+1])
    rows = mats[:, :, :, None]
    for s in range(n - 1, -1, -1):
        np.matmul(pairs[:, s + 1, s : n + 1], weights, out=rows[:, s, s : n + 1])
    mats = mats[:, :, : n + 1]
    mats.flags.writeable = False
    return mats


def _clamp_probability(value: float) -> float:
    """The true value lies in [0, 1]; trim accumulated roundoff."""
    return min(max(value, 0.0), 1.0)


def survival_dirichlet(instance: SurvivalInstance, spec: QuadratureSpec | None = None) -> float:
    """Survival probability via the Dirichlet-type integral over the region.

    Requires a reduced instance (every threshold ``k_i >= 1``); an impossible
    instance (``kappa_d > n``) short-circuits to 0.
    """
    if instance.impossible:
        return 0.0
    if np.any(instance.k < 1):
        raise ValueError(
            "Dirichlet route needs all thresholds >= 1; apply reduce_thresholds first"
        )
    return _integrate([instance], dirichlet_factors([instance]), spec)[0]


def survival_gaussian(instance: SurvivalInstance, spec: QuadratureSpec | None = None) -> float:
    """Survival probability via the Gaussian-representation integral.

    Requires ``J_i >= 1`` for every cell, i.e. every threshold ``k_i >= 2``
    and ``kappa_d <= n - 1``; an impossible instance short-circuits to 0.
    """
    if instance.impossible:
        return 0.0
    reason = instance.gaussian_block_reason
    if reason is not None:
        raise ValueError(f"inapplicable (Gaussian route requires J_i >= 1): {reason}")
    return _integrate([instance], gaussian_factors([expansion_context(instance)]), spec)[0]


def _integrate(instances, factors, spec):
    """The clamped chain integrals of ``factors``, one per instance."""
    prefix = np.array([instance.weights.prefix for instance in instances])
    values, _ = integrate_chain(prefix, factors, spec)
    return [_clamp_probability(value) for value in values.tolist()]


def survival_mc(instance: SurvivalInstance, replications: int, seed: int):
    """Monte Carlo estimate of the survival probability.

    Each replication draws ``n`` iid uniforms and checks that at least
    ``kappa_i`` of them fall below the i-th weight prefix for every i, which
    is the defining order-statistics description of the event: the
    ``kappa_i``-th smallest uniform is at most the prefix.

    Returns
    -------
    (float, float)
        Frequency estimate and its binomial standard error; fully determined
        by ``(seed, replications)``.  An impossible instance (``kappa_d >
        n``) returns ``(0.0, 0.0)`` without drawing.

    Raises
    ------
    TypeError
        If ``replications`` or ``seed`` is not an integer.
    ValueError
        If ``replications < MIN_REPLICATIONS`` or ``seed`` is ``None``.
    CostGuardError
        If ``n`` exceeds ``_MC_CHUNK_VALUES``, the uniforms of one chunk.
    """
    replications = operator.index(replications)
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"replications must be >= {MIN_REPLICATIONS}")
    if seed is None:
        raise ValueError("survival_mc requires a seed")
    seed = operator.index(seed)
    n = instance.n
    if n > _MC_CHUNK_VALUES:
        raise CostGuardError(f"Monte Carlo needs n <= {_MC_CHUNK_VALUES}, got n = {n}")
    if instance.impossible:
        return 0.0, 0.0
    prefix, kappa = instance.weights.prefix.tolist(), instance.kappa.tolist()
    tests = [(p, k) for p, k in zip(prefix, kappa) if k >= 1]  # k = 0 always holds
    rng = np.random.default_rng(seed)

    chunk = _MC_CHUNK_VALUES // n
    hits = 0
    for done in range(0, replications, chunk):
        u = rng.random((min(chunk, replications - done), n))  # one replication per row
        ok = np.ones(len(u), dtype=bool)
        for p, k in tests:
            # int32 is exact for n <= _MC_CHUNK_VALUES; on rows of n <= 40
            # einsum counts faster than sum or count_nonzero
            ok &= np.einsum("ij->i", u <= p, dtype=np.int32) >= k
        hits += int(np.count_nonzero(ok))

    est = hits / replications
    stderr = math.sqrt(est * (1.0 - est) / replications)
    return est, stderr


@dataclass(frozen=True)
class McResult:
    estimate: float
    stderr: float
    replications: int
    seed: int


@dataclass(frozen=True)
class RouteReport:
    """Values, diagnostics and discrepancies from every applicable route."""

    n: int
    d: int
    p: tuple
    k: tuple
    exact: float | None
    dirichlet: float | None
    gaussian: float | None
    gaussian_reason: str | None
    mc: McResult | None
    delta_n: float | None
    gamma_tilde: float | None
    max_rel_diff: float | None
    nodes: int
    tolerance: float


def _rel_diff(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def compare_routes(
    instance: SurvivalInstance,
    spec: QuadratureSpec | None = None,
    routes=None,
    tolerance: float = 1e-8,
    *,
    replications: int | None = None,
    seed: int | None = None,
) -> RouteReport:
    """Run the requested routes on one instance and report the comparison.

    Thresholds are reduced internally, so zero entries in ``k`` are
    accepted.  Route inapplicability is recorded in the report rather than
    raised; only cost-guard violations propagate.  It is
    :func:`compare_batch` of the one instance.

    Parameters
    ----------
    spec : QuadratureSpec, optional
        Nodes per panel of the two integral routes' chain rule, of which at
        least ``MIN_PANEL_NODES`` (32) are used; defaults to 64.
    routes : iterable of str, optional
        Subset of ``{"exact", "dirichlet", "gaussian", "mc"}``.  Defaults to
        the three deterministic routes, plus ``"mc"`` when ``replications``
        is given.
    replications, seed : int, optional
        Sample size (``>= MIN_REPLICATIONS``) and RNG seed of the ``"mc"``
        route; both are required when it runs.
    """
    return compare_batch([instance], spec, routes, tolerance,
                         replications=replications, seed=seed)[0]


def compare_batch(
    instances,
    spec: QuadratureSpec | None = None,
    routes=None,
    tolerance: float = 1e-8,
    *,
    replications: int | None = None,
    seed: int | None = None,
) -> list:
    """:func:`compare_routes` of every instance, as a list in input order.

    ``instances`` is any iterable of instances, consumed once, in order.
    Row ``r``'s report is bit for bit the report of ``compare_routes`` on
    its instance alone, except that its Monte Carlo draws with seed ``seed
    + r``.

    Threshold reduction, the expansion context, the chain rule's cost guard
    (:func:`mnsurv.quadrature.chain_evaluations`), the exact route and Monte
    Carlo run row by row in input order.  The two integral routes run after
    them, grouped by the reduced ``d``: each group is one batched
    :func:`mnsurv.quadrature.integrate_chain` call per route, which shares
    one grid between rows of equal weights (the rows of a sweep).  A
    failure (a route's cost guard, a Monte Carlo sample below
    ``MIN_REPLICATIONS``, or an instance that cannot be built while
    ``instances`` is consumed) raises at its row, so the first failing row
    in input order decides, and no later row runs.  The chain integrals
    fail in no other way: their factors are finite on the grid of every
    valid instance, and their guard was checked in the row phase.
    """
    spec = spec if spec is not None else QuadratureSpec()
    if routes is None:
        routes = DETERMINISTIC_ROUTES + (("mc",) if replications is not None else ())
    routes = set(routes)
    unknown = routes.difference(DETERMINISTIC_ROUTES + ("mc",))
    if unknown:
        raise ValueError(f"unknown routes: {sorted(unknown)}")
    if "mc" in routes:
        if replications is None or seed is None:
            raise ValueError("mc route needs both replications and a seed")
        # a report holds Python ints, which serialise; floats are refused
        replications, seed = operator.index(replications), operator.index(seed)

    rows = [_Row(idx, instance, routes, spec, replications, seed)
            for idx, instance in enumerate(instances)]

    groups = {}  # reduced d -> rows whose integrals run, in input order
    for row in rows:
        if row.integrate:
            groups.setdefault(row.reduced.d, []).append(row)
    for group in groups.values():
        if "dirichlet" in routes:
            reduced = [row.reduced for row in group]
            for row, value in zip(group, _integrate(reduced, dirichlet_factors(reduced), spec)):
                row.values["dirichlet"] = value
        ready = [row for row in group if row.context is not None]
        if "gaussian" in routes and ready:
            factors = gaussian_factors([row.context for row in ready])
            values = _integrate([row.reduced for row in ready], factors, spec)
            for row, value in zip(ready, values):
                row.values["gaussian"] = value
    return [_report(row, spec, tolerance) for row in rows]


class _Row:
    """Row ``idx`` of a batch: its reduced instance, the values of its exact
    and Monte Carlo routes, and whether its integral routes are to run."""

    def __init__(self, idx, instance, routes, spec, replications, seed):
        self.instance = instance
        self.values = {}  # route -> value
        self.integrate = False
        self.context = self.gaussian_reason = self.mc = None
        if np.all(instance.k >= 1):
            reduced = instance  # nothing to merge: the instance is already reduced
        else:
            rp, rk = reduce_thresholds(instance.p, instance.k)
            reduced = build_instance(instance.n, rp, rk) if rk.size else None
        self.reduced = reduced

        if reduced is None or reduced.impossible:
            # every constraint vacuous (probability 1) or the event impossible (0)
            value = 1.0 if reduced is None else 0.0
            self.values = {route: value for route in DETERMINISTIC_ROUTES if route in routes}
        else:
            self.integrate = True
            if reduced.gaussian_block_reason is None:
                self.context = expansion_context(reduced)
            elif "gaussian" in routes:
                self.gaussian_reason = reduced.gaussian_block_reason
            if "dirichlet" in routes or ("gaussian" in routes and self.context is not None):
                chain_evaluations(reduced.d, spec.nodes)  # the chain rule's cost guard
            if "exact" in routes:
                self.values["exact"] = survival_exact(reduced)

        if "mc" in routes:
            target = reduced if reduced is not None else instance
            est, se = survival_mc(target, replications, seed + idx)
            self.mc = McResult(est, se, replications, seed + idx)


def _report(row, spec, tolerance):
    values = [row.values[r] for r in DETERMINISTIC_ROUTES if r in row.values]
    max_rel = None
    if len(values) >= 2:
        max_rel = max(
            _rel_diff(a, b) for idx, a in enumerate(values) for b in values[idx + 1 :]
        )
    instance, ctx = row.instance, row.context
    return RouteReport(
        n=instance.n,
        d=instance.d,
        p=tuple(float(v) for v in instance.p),
        k=tuple(int(v) for v in instance.k),
        exact=row.values.get("exact"),
        dirichlet=row.values.get("dirichlet"),
        gaussian=row.values.get("gaussian"),
        gaussian_reason=row.gaussian_reason,
        mc=row.mc,
        delta_n=None if ctx is None else ctx.delta_n,
        gamma_tilde=None if ctx is None else ctx.gamma_tilde,
        max_rel_diff=max_rel,
        nodes=spec.nodes,
        tolerance=tolerance,
    )

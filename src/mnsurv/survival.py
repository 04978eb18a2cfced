"""The four evaluation routes for the joint survival probability.

* :func:`survival_exact` runs the sequential-binomial recursion: the
  cumulated counts form a Markov chain with binomial steps, so the value is a
  d-step forward recursion on the distribution of ``S_i`` over ``0..n``,
  truncated below ``kappa_i`` after each step, at ``O(d n^2)`` cost.  It
  refuses instances whose transition matrices exceed
  ``MAX_TRANSITION_BYTES``.  The matrices are not cached: a batch builds
  them once per distinct ``(n, p)``.
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
:func:`compare_batch` does the same for a batch of instances.  After a
row phase of reductions and cost guards, it runs each route once per
group of rows: one exact recursion for each reduced ``(n, d)``, one
batched chain integral of both integral routes for the Gaussian-ready
rows of each reduced ``d``, which first computes their expansion
contexts (and one of the Dirichlet route for its other rows), and one
Monte Carlo sample for each reduced ``(n, p)``; :func:`compare_routes` is
its batch of one.
"""

from __future__ import annotations

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
    expansion_contexts,
    gamma_tilde,
    gaussian_factors,
    log_dirichlet_integrand,
    log_gaussian_integrand,
)
from .model import SurvivalInstance, build_instance, reduce_thresholds
from .quadrature import (
    CostGuardError,
    QuadratureSpec,
    _integrate_chains,
    chain_evaluations,
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

# A group of exact rows holds the matrices of a chunk of weight vectors and
# the vectors of a chunk of rows in at most this many float64 entries (2 MB)
# each, or in one instance's matrices or one row where those are more.
_EXACT_CHUNK_ENTRIES = 2**18

# The smallest Monte Carlo sample.
MIN_REPLICATIONS = 1000

# Uniforms per simulation chunk, 16 MB; the previous chunk lives on while the
# next is drawn, so two are held at once.  A chunk holds one replication or
# more, so Monte Carlo refuses n above this, and a count, at most n, fits in
# int32 (in uint8 below n = 256, where _mc_sample counts in bytes).
_MC_CHUNK_VALUES = 2_000_000

DETERMINISTIC_ROUTES = ("exact", "dirichlet", "gaussian")
ROUTES = (*DETERMINISTIC_ROUTES, "mc")


def survival_exact(instance: SurvivalInstance) -> float:
    """Exact survival probability by the sequential-binomial recursion.

    The cumulated counts ``S_i = X_1 + ... + X_i`` form a Markov chain whose
    step from ``S_{i-1} = s`` is ``Binomial(n - s, p_i / (p_i + ... +
    p_{d+1}))``.  A length-``(n+1)`` vector holding ``P(S_i = s, S_1 >=
    kappa_1, ..., S_i >= kappa_i)`` is multiplied by one transition matrix
    per step and zeroed below ``kappa_i``; after each step it is rescaled by
    a power of two so that its maximum lies in ``[1/2, 1)``, and the binary
    exponents are added up, so deep tails keep their relative accuracy.
    Every term is nonnegative, so nothing cancels.  It runs the recursion of
    :func:`compare_batch`'s group step on the one instance's matrices.
    """
    if instance.impossible:
        return 0.0
    if instance.kappa[-1] == 0:
        return 1.0
    _check_transition_bytes(instance)
    return _exact_recursion(_transition_matrices(instance.n, instance.weights.p_full[None]),
                            instance.kappa[None])[0]


def _check_transition_bytes(instance):
    """The exact route's cost guard, on the matrices of one instance."""
    n, d = instance.n, instance.d
    size = 8 * d * (n + 1) ** 2
    if size > MAX_TRANSITION_BYTES:
        raise CostGuardError(
            f"transition matrices of {size} bytes (8 d (n+1)^2, n = {n}, d = {d}) "
            f"exceed {MAX_TRANSITION_BYTES} bytes"
        )


def _exact_group(instances):
    """:func:`survival_exact` of checked instances of one ``(n, d)``, none
    impossible or vacuous, as a list.  Each distinct weight vector's
    matrices are built once, one chunk of them alive at a time."""
    n, d = instances[0].n, instances[0].d
    owners = _groups(range(len(instances)), lambda idx: instances[idx].weights.p_full.tobytes())
    lone_first = sorted(owners, key=len)
    kappa = np.array([instance.kappa for instance in instances])
    sets = max(1, _EXACT_CHUNK_ENTRIES // (d * (n + 1) ** 2))
    values = [None] * len(instances)
    for start in range(0, len(lone_first), sets):
        for idx, value in _exact_chunk(instances, lone_first[start : start + sets], kappa):
            values[idx] = value
    return values


def _exact_chunk(instances, chunk, kappa):
    """``(row, value)`` pairs of ``chunk``, the row lists of distinct weight
    vectors, lone ones first.  Lone rows run together, each on its own
    matrices; the rows of a shared weight vector (a sweep's) run together
    on its one set, in chunks of rows."""
    n = instances[0].n
    p_full = np.array([instances[owned[0]].weights.p_full for owned in chunk])
    mats = _transition_matrices(n, p_full)
    lone = [owned[0] for owned in chunk if len(owned) == 1]
    parts = [(lone, mats[: len(lone)])] if lone else []
    rows = max(1, _EXACT_CHUNK_ENTRIES // (n + 1))
    for owned, shared in zip(chunk[len(lone) :], mats[len(lone) :, None]):  # (1, d, s, t)
        parts += [(owned[first : first + rows], shared) for first in range(0, len(owned), rows)]
    return [pair for part, part_mats in parts
            for pair in zip(part, _exact_recursion(part_mats, kappa[part]))]


def _exact_recursion(mats, kappa):
    """The recursion of the rows of ``kappa`` (shape ``(R, d)``), on one set
    of matrices per row, ``mats`` of shape ``(R, d, n+1, n+1)``, or on one
    shared set, of shape ``(1, d, n+1, n+1)``.  Each row's value is bit for
    bit that of the row alone."""
    size = mats.shape[-1]
    f = np.zeros((len(kappa), size))
    f[:, 0] = 1.0
    exponent = np.zeros(len(kappa), dtype=np.int64)
    columns = np.arange(size)
    for i in range(kappa.shape[1]):
        # einsum sums over s in a fixed order, the same for a row alone and
        # in a batch; a BLAS product's order can depend on its thread count,
        # and with it the last bits
        f = np.einsum("...s,...st->...t", f, mats[:, i])
        f[columns < kappa[:, i, None]] = 0.0
        e = np.frexp(f.max(axis=1))[1]  # 0 once every entry of a row has underflowed
        np.ldexp(f, -e[:, None], out=f)
        exponent += e
    return [
        _clamp_probability(math.ldexp(math.fsum(row), e))
        for row, e in zip(f.tolist(), exponent.tolist())
    ]


def _transition_matrices(n: int, p_full: np.ndarray) -> np.ndarray:
    """``M[u, i, s, t] = P(S_{i+1} = t | S_i = s)`` under the weights
    ``p_full[u]``, shape ``(U, d, n+1, n+1)`` for ``U`` weight vectors.

    Row ``s`` of step ``i`` is the pmf of ``Binomial(n - s, q_i)`` shifted
    right by ``s``, with ``q_i = p_i / R_i`` and ``1 - q_i = R_{i+1} / R_i``
    for the tail sums ``R_i = p_i + ... + p_{d+1}``.  Rows are built from
    the last up by Pascal's rule, ``M[s, t] = (1 - q) M[s+1, t+1] + q M[s+1,
    t]``, which adds nonnegative terms only: each entry keeps a relative
    error of a few ulps per trial, with no large logarithms to cancel.  One
    stacked matrix product per row applies the rule to every step of every
    weight vector at once.
    """
    u, d = p_full.shape[0], p_full.shape[1] - 1
    tail = np.cumsum(p_full[:, ::-1], axis=1)[:, ::-1]
    weights = np.stack([p_full[:, :-1] / tail[:, :-1], tail[:, 1:] / tail[:, :-1]], axis=2)
    weights = weights.reshape(u * d, 2, 1)
    # one zero column past t = n feeds the (1 - q) term of the last column
    mats = np.zeros((u * d, n + 1, n + 2))
    mats[:, n, n] = 1.0
    pairs = np.lib.stride_tricks.sliding_window_view(mats, 2, axis=2)  # (M[s, t], M[s, t+1])
    rows = mats[:, :, :, None]
    for s in range(n - 1, -1, -1):
        np.matmul(pairs[:, s + 1, s : n + 1], weights, out=rows[:, s, s : n + 1])
    return mats[:, :, : n + 1].reshape(u, d, n + 1, n + 1)


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
    return _integrate([instance], (dirichlet_factors([instance]),), spec)[0][0]


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
    return _integrate([instance], (gaussian_factors([expansion_context(instance)]),), spec)[0][0]


def _integrate(instances, factor_sets, spec):
    """The clamped chain integrals of each of ``factor_sets``, a list per
    set with one value per instance, on one grid per chunk of instances."""
    prefix = np.array([instance.weights.prefix for instance in instances])
    return [[_clamp_probability(value) for value in values.tolist()]
            for values, _ in _integrate_chains(prefix, factor_sets, spec)]


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
        n``) returns ``(0.0, 0.0)`` and one whose thresholds are all 0
        returns ``(1.0, 0.0)``, both without drawing, whatever ``n``.

    Raises
    ------
    TypeError
        If ``replications`` or ``seed`` is not an integer.
    ValueError
        If ``replications < MIN_REPLICATIONS`` or ``seed`` is ``None``.
    CostGuardError
        If ``n`` exceeds ``_MC_CHUNK_VALUES``, the uniforms of one chunk.
    """
    replications, seed = _check_mc(instance, replications, seed)
    return _mc_sample([instance], replications, seed)[0]


def _check_mc(instance, replications, seed):
    """:func:`survival_mc`'s argument checks and cost guard, without drawing;
    returns ``replications`` and ``seed`` as Python ints."""
    replications = operator.index(replications)
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"replications must be >= {MIN_REPLICATIONS}")
    if seed is None:
        raise ValueError("survival_mc requires a seed")
    seed = operator.index(seed)
    if _mc_draws(instance) and instance.n > _MC_CHUNK_VALUES:
        raise CostGuardError(f"Monte Carlo needs n <= {_MC_CHUNK_VALUES}, got n = {instance.n}")
    return replications, seed


def _mc_draws(instance):
    """Whether the event can both fail and hold, so that its estimate needs
    a sample: not impossible, and some threshold above 0."""
    return not instance.impossible and int(instance.kappa[-1]) >= 1


def _mc_sample(instances, replications, seed):
    """:func:`survival_mc` of checked instances of one ``n`` and one prefix
    vector, all on the one sample that ``seed`` draws.

    Each chunk counts its uniforms below every prefix ``P_i`` once, and each
    instance tests its own ``kappa`` against those counts, so an instance
    costs ``O(replications d)`` on top of the ``O(replications n)`` draw.
    Only the prefixes where some instance has a threshold ``k_i >= 1`` are
    counted, at most ``n`` of them (every instance of a batch is reduced):
    where an instance has ``k_i = 0``, ``S_i >= kappa_i`` follows from its
    test at the last such prefix below, of the same ``kappa``.
    """
    results = [(0.0, 0.0) if instance.impossible else (1.0, 0.0) for instance in instances]
    drawn = [idx for idx, instance in enumerate(instances) if _mc_draws(instance)]
    if not drawn:
        return results
    n, prefix = instances[drawn[0]].n, instances[drawn[0]].weights.prefix.tolist()
    k = np.array([instances[idx].k for idx in drawn])  # one row per instance
    counted = np.flatnonzero(k.any(axis=0))
    kappa = np.cumsum(k, axis=1)[:, counted]
    rng = np.random.default_rng(seed)

    chunk = _MC_CHUNK_VALUES // n
    hits = [0] * len(drawn)
    for done in range(0, replications, chunk):
        u = rng.random((min(chunk, replications - done), n))  # one replication per row
        # a count is at most n, and a drawn row's kappa_i too; on rows of n <=
        # 40 einsum counts faster than sum or count_nonzero, and below n = 256
        # it sums the bytes of the mask as they are, with no cast to int32
        counts = [np.einsum("ij->i", (u <= prefix[i]).view(np.uint8)) if n < 256
                  else np.einsum("ij->i", u <= prefix[i], dtype=np.int32)
                  for i in counted.tolist()]
        for row, row_kappa in enumerate(kappa.tolist()):
            ok = counts[0] >= row_kappa[0]
            for count, kappa_i in zip(counts[1:], row_kappa[1:]):
                ok &= count >= kappa_i
            hits[row] += int(np.count_nonzero(ok))

    for idx, h in zip(drawn, hits):
        est = h / replications
        results[idx] = (est, math.sqrt(est * (1.0 - est) / replications))
    return results


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
    its instance alone, except for its Monte Carlo seed.

    Monte Carlo runs on the reduced instance (the instance itself when every
    threshold is 0).  Rows whose targets share ``n`` and the prefix sums
    share one sample, drawn with seed ``seed + r`` for the group's first
    row ``r``; every row of the group records that seed, and its estimate
    is bit for bit :func:`survival_mc` of its target with it.  Rows of one
    ``(n, p)`` (a sweep over thresholds) thus see common random numbers:
    each estimate keeps its binomial law, but their errors are correlated,
    and raising a threshold of one of them never raises its estimate.

    The row phase runs in input order and keeps only what decides which row
    fails first: threshold reduction, the cost guards of the chain rule
    (:func:`mnsurv.quadrature.chain_evaluations`) and the exact route, and
    the Monte Carlo checks.  The group steps follow: the exact route per
    reduced ``(n, d)``, one batched chain integral per reduced ``d`` for
    the Gaussian-ready rows, which first computes their expansion contexts
    (every such row reports them, whichever routes run), with both
    integral routes on each chunk's grid, and one for the
    Dirichlet route's other rows (rows of equal weights share one grid), and
    the Monte Carlo samples last.  A failure (a cost guard, a Monte Carlo
    sample below ``MIN_REPLICATIONS``, or an instance that cannot be built
    while ``instances`` is consumed) raises at its row, so the first
    failing row in input order decides, and no later row runs or is
    consumed.  The group steps fail in no other way: their factors are
    finite on the grid of every valid instance, and their guards were
    checked in the row phase.
    """
    spec = spec if spec is not None else QuadratureSpec()
    if routes is None:
        routes = DETERMINISTIC_ROUTES + (("mc",) if replications is not None else ())
    routes = set(routes)
    unknown = routes.difference(ROUTES)
    if unknown:
        raise ValueError(f"unknown routes: {sorted(unknown)}")
    if "mc" in routes:
        if replications is None or seed is None:
            raise ValueError("mc route needs both replications and a seed")
        # a report holds Python ints, which serialise; floats are refused
        replications, seed = operator.index(replications), operator.index(seed)

    rows = [_Row(idx, instance, routes, spec, replications, seed)
            for idx, instance in enumerate(instances)]

    integrated = [row for row in rows if row.integrate]
    if "exact" in routes:
        for group in _groups(integrated, lambda row: (row.reduced.n, row.reduced.d)):
            for row, value in zip(group, _one_or_many(group, survival_exact, _exact_group)):
                row.values["exact"] = value

    # a Gaussian-ready row's two integral routes share each chunk's grid
    for group in _groups(integrated, lambda row: (row.reduced.d, row.ready)):
        if group[0].ready:  # every report of a ready row carries its context
            for row, context in zip(group, _one_or_many(group, expansion_context,
                                                        expansion_contexts)):
                row.context = context
        reduced, factors = [row.reduced for row in group], {}
        if "dirichlet" in routes:
            factors["dirichlet"] = dirichlet_factors(reduced)
        if "gaussian" in routes and group[0].ready:
            factors["gaussian"] = gaussian_factors([row.context for row in group])
        if not factors:  # the exact route alone
            continue
        for route, values in zip(factors, _integrate(reduced, list(factors.values()), spec)):
            for row, value in zip(group, values):
                row.values[route] = value

    if "mc" in routes:
        # one sample per (n, prefix sums) of the Monte Carlo target
        for group in _groups(rows, lambda row: (row.mc_target.n,
                                                row.mc_target.weights.prefix.tobytes())):
            group_seed = seed + group[0].idx
            results = _mc_sample([row.mc_target for row in group], replications, group_seed)
            for row, (est, se) in zip(group, results):
                row.mc = McResult(est, se, replications, group_seed)
    return [_report(row, spec, tolerance) for row in rows]


def _groups(rows, key):
    """The rows of each value of ``key``, in input order, as lists in the
    order of their first rows."""
    groups = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return list(groups.values())


def _one_or_many(group, one, many):
    """``many`` of the group's reduced instances, or ``[one(instance)]`` for
    a group of one, whose calls the benchmark's tracer sees."""
    return [one(group[0].reduced)] if len(group) == 1 else many([row.reduced for row in group])


class _Row:
    """Row ``idx`` of a batch: its reduced instance, the instance its Monte
    Carlo runs on, whether its integral routes are to run and whether it is
    Gaussian-ready, and the values the group steps give it."""

    def __init__(self, idx, instance, routes, spec, replications, seed):
        self.idx = idx
        self.instance = instance
        self.values = {}  # route -> value
        self.integrate = self.ready = False
        self.context = self.gaussian_reason = self.mc = None
        if min(instance.k.tolist()) >= 1:
            reduced = instance  # nothing to merge: the instance is already reduced
        else:
            rp, rk = reduce_thresholds(instance.p, instance.k)
            reduced = build_instance(instance.n, rp, rk.tolist()) if rk.size else None
        self.reduced = reduced

        if reduced is None or reduced.impossible:
            # every constraint vacuous (probability 1) or the event impossible (0)
            value = 1.0 if reduced is None else 0.0
            self.values = {route: value for route in DETERMINISTIC_ROUTES if route in routes}
        else:
            self.integrate = True
            self.ready = reduced.gaussian_block_reason is None
            if not self.ready and "gaussian" in routes:
                self.gaussian_reason = reduced.gaussian_block_reason
            if "dirichlet" in routes or ("gaussian" in routes and self.ready):
                chain_evaluations(reduced.d, spec.nodes)  # the chain rule's cost guard
            if "exact" in routes:
                _check_transition_bytes(reduced)

        if "mc" in routes:
            self.mc_target = reduced if reduced is not None else instance
            _check_mc(self.mc_target, replications, seed)


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
        p=tuple(instance.p.tolist()),
        k=tuple(instance.k.tolist()),
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

"""The four evaluation routes for the joint survival probability.

* :func:`survival_exact` enumerates the constrained count lattice and sums
  the multinomial pmf in log space with compensated summation.
* :func:`survival_dirichlet` integrates the Dirichlet-type integrand over
  the nested region (valid whenever every gap ``j_i >= 1``).
* :func:`survival_gaussian` integrates the equivalent Gaussian-representation
  integrand (valid whenever every ``J_i >= 1``).
* :func:`survival_mc` simulates the defining order-statistics event.

:func:`compare_routes` runs whichever routes apply, collects diagnostics and
pairwise discrepancies, and never raises on mere inapplicability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expansions import (
    ExpansionContext,
    delta_n,
    expansion_context,
    gamma_tilde,
    log_dirichlet_integrand,
    log_gaussian_integrand,
)
from .model import SurvivalInstance, build_instance, reduce_thresholds
from .quadrature import MIN_REPLICATIONS, CostGuardError, QuadratureSpec, integrate_region

__all__ = [
    "MAX_LATTICE_POINTS",
    "McResult",
    "RouteReport",
    "survival_exact",
    "survival_dirichlet",
    "survival_gaussian",
    "survival_mc",
    "compare_routes",
]

# Enumeration refuses instances whose full lattice C(n+d, d) exceeds this.
MAX_LATTICE_POINTS = 10**7

_MC_CHUNK_VALUES = 4_000_000  # uniforms held in memory per simulation chunk

DETERMINISTIC_ROUTES = ("exact", "dirichlet", "gaussian")


def survival_exact(instance: SurvivalInstance) -> float:
    """Exact survival probability by constrained lattice enumeration.

    Sums the multinomial pmf over all count vectors ``x`` with
    ``x_1 + ... + x_i >= kappa_i`` for every i and ``sum(x) <= n``; terms are
    formed in log space and accumulated with compensated summation.
    """
    n, d = instance.n, instance.d
    kappa = instance.kappa
    if instance.impossible:
        return 0.0
    if kappa[-1] == 0:
        return 1.0
    if math.comb(n + d, d) > MAX_LATTICE_POINTS:
        raise CostGuardError(
            f"enumeration lattice C({n + d},{d}) exceeds {MAX_LATTICE_POINTS} points"
        )

    logfact = [math.lgamma(m + 1.0) for m in range(n + 1)]
    logp = np.log(instance.weights.p_full)
    base = logfact[n]

    # Neumaier-compensated accumulation of pmf terms.
    total = 0.0
    comp = 0.0

    def add(term):
        nonlocal total, comp
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t

    def recurse(axis, used, logacc):
        if axis == d:
            rest = n - used
            add(math.exp(logacc - logfact[rest] + rest * logp[d]))
            return
        lo = max(0, int(kappa[axis]) - used)
        for x in range(lo, n - used + 1):
            recurse(axis + 1, used + x, logacc - logfact[x] + x * logp[axis])

    recurse(0, 0, base)
    return _clamp_probability(total + comp)


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
    value, _ = integrate_region(
        instance.weights, lambda s: log_dirichlet_integrand(instance, s), spec
    )
    return _clamp_probability(value)


def survival_gaussian(
    instance: SurvivalInstance | ExpansionContext, spec: QuadratureSpec | None = None
) -> float:
    """Survival probability via the Gaussian-representation integral.

    Requires ``J_i >= 1`` for every cell, i.e. every threshold ``k_i >= 2``
    and ``kappa_d <= n - 1``; an impossible instance short-circuits to 0.
    An :class:`ExpansionContext` may stand in for the instance, so a caller
    that already holds one does not recompute its ``delta_n``.
    """
    ctx = instance if isinstance(instance, ExpansionContext) else None
    if ctx is not None:
        instance = ctx.instance
    if instance.impossible:
        return 0.0
    reason = instance.gaussian_block_reason
    if reason is not None:
        raise ValueError(f"inapplicable (Gaussian route requires J_i >= 1): {reason}")
    if ctx is None:
        ctx = expansion_context(instance)
    value, _ = integrate_region(
        instance.weights, lambda s: log_gaussian_integrand(ctx, s), spec
    )
    return _clamp_probability(value)


def survival_mc(instance: SurvivalInstance, replications: int, seed: int):
    """Monte Carlo estimate of the survival probability.

    Each replication draws ``n`` iid uniforms and checks that at least
    ``kappa_i`` of them fall below the i-th weight prefix for every i, which
    is the defining order-statistics description of the event.

    Returns
    -------
    (float, float)
        Frequency estimate and its binomial standard error; fully determined
        by ``(seed, replications)``.
    """
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"replications must be >= {MIN_REPLICATIONS}")
    n, d = instance.n, instance.d
    kappa = instance.kappa
    prefix = instance.weights.prefix
    rng = np.random.default_rng(seed)

    chunk = max(1, _MC_CHUNK_VALUES // n)
    done = 0
    hits = 0
    while done < replications:
        m = min(chunk, replications - done)
        u = rng.random((m, n))
        ok = np.ones(m, dtype=bool)
        for i in range(d):
            if kappa[i] == 0:
                continue
            ok &= np.count_nonzero(u <= prefix[i], axis=1) >= kappa[i]
        hits += int(np.count_nonzero(ok))
        done += m

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
    mc_spec: QuadratureSpec | None = None,
    routes=None,
    tolerance: float = 1e-8,
) -> RouteReport:
    """Run the requested routes on one instance and report the comparison.

    Thresholds are reduced internally, so zero entries in ``k`` are
    accepted.  Route inapplicability is recorded in the report rather than
    raised; only cost-guard violations propagate.

    Parameters
    ----------
    routes : iterable of str, optional
        Subset of ``{"exact", "dirichlet", "gaussian", "mc"}``.  Defaults to
        the three deterministic routes, plus ``"mc"`` when ``mc_spec`` is
        given.
    """
    spec = spec if spec is not None else QuadratureSpec()
    if routes is None:
        routes = list(DETERMINISTIC_ROUTES) + (["mc"] if mc_spec is not None else [])
    routes = set(routes)
    unknown = routes.difference(DETERMINISTIC_ROUTES + ("mc",))
    if unknown:
        raise ValueError(f"unknown routes: {sorted(unknown)}")
    if "mc" in routes and mc_spec is None:
        raise ValueError("mc route requested without an mc_spec")

    rp, rk = reduce_thresholds(instance.p, instance.k)
    reduced = build_instance(instance.n, rp, rk) if rk.size else None

    exact = dirichlet = gaussian = None
    gaussian_reason = None
    dn = gt = None

    if reduced is None or reduced.impossible:
        # every constraint vacuous (probability 1) or the event impossible (0)
        value = 1.0 if reduced is None else 0.0
        exact, dirichlet, gaussian = (
            value if route in routes else None for route in DETERMINISTIC_ROUTES
        )
    else:
        if "exact" in routes:
            exact = survival_exact(reduced)
        if "dirichlet" in routes:
            dirichlet = survival_dirichlet(reduced, spec)
        if reduced.gaussian_block_reason is None:
            if "gaussian" in routes:
                ctx = expansion_context(reduced)
                gaussian = survival_gaussian(ctx, spec)
                dn = ctx.delta_n
            else:
                dn = delta_n(reduced)
            gt = gamma_tilde(reduced)
        elif "gaussian" in routes:
            gaussian_reason = reduced.gaussian_block_reason

    mc = None
    if "mc" in routes:
        target = reduced if reduced is not None else instance
        est, se = survival_mc(target, mc_spec.replications, mc_spec.seed)
        mc = McResult(est, se, mc_spec.replications, mc_spec.seed)

    values = [v for v in (exact, dirichlet, gaussian) if v is not None]
    max_rel = None
    if len(values) >= 2:
        max_rel = max(
            _rel_diff(a, b) for idx, a in enumerate(values) for b in values[idx + 1 :]
        )

    return RouteReport(
        n=instance.n,
        d=instance.d,
        p=tuple(float(v) for v in instance.p),
        k=tuple(int(v) for v in instance.k),
        exact=exact,
        dirichlet=dirichlet,
        gaussian=gaussian,
        gaussian_reason=gaussian_reason,
        mc=mc,
        delta_n=dn,
        gamma_tilde=gt,
        max_rel_diff=max_rel,
        nodes=spec.nodes,
        tolerance=tolerance,
    )

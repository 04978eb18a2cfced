"""Problem instances for joint survival probabilities of cumulated multinomial counts.

The event of interest is ``P(X_1 + ... + X_i >= kappa_i for all i <= d)`` where
``X ~ Multinomial(n, p)`` over d+1 cells, ``k`` holds the per-cell thresholds
and ``kappa`` their running sums.  This module validates inputs, derives the
integer gap vectors ``j``/``J`` and the relative offsets ``eps``/``eps_tilde``
used by the integral routes, and merges away zero thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ProbabilityWeights",
    "SurvivalInstance",
    "make_weights",
    "build_instance",
    "instance_with_weights",
    "reduce_thresholds",
    "WEIGHT_MARGIN",
]

# Weights must stay at least this far from the boundary of the simplex.
WEIGHT_MARGIN = 1e-12

# Counts are int64, so n + 1 and the threshold sum must not exceed this.
_INT64_MAX = int(np.iinfo(np.int64).max)

# The numpy dtype kinds of p and k that are read as numbers: signed and
# unsigned integers and floats.
_NUMBER_KINDS = "iuf"


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ProbabilityWeights:
    """Cell weights ``p_1..p_d``, the implied last cell and the running sums.

    Attributes
    ----------
    p : ndarray, shape (d,)
        Strictly positive weights of the first d cells.
    p_last : float
        Weight ``1 - sum(p)`` of the implicit cell d+1, strictly positive.
    prefix : ndarray, shape (d,)
        ``prefix[i-1] = p_1 + ... + p_i``; strictly increasing, ``< 1``.
    p_full : ndarray, shape (d+1,)
        All cell weights including the implicit last one.
    log_det : float
        ``sum(ln p_full)``, the log-determinant of ``diag(p) - p p^T``; cached.
    """

    p: np.ndarray
    p_last: float
    prefix: np.ndarray
    p_full: np.ndarray

    @property
    def d(self) -> int:
        return self.p.shape[0]

    @cached_property
    def log_det(self) -> float:
        return float(np.sum(np.log(self.p_full)))


def make_weights(p) -> ProbabilityWeights:
    """Validate a weight vector and derive prefix sums and the implicit cell.

    Raises
    ------
    ValueError
        If any ``p_i`` or the implied last weight sits within ``WEIGHT_MARGIN``
        of zero, or the vector is empty / not one-dimensional, or holds
        strings or other non-numbers.
    """
    p = np.asarray(p)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p must be a non-empty 1-d vector of probabilities")
    if p.dtype.kind not in _NUMBER_KINDS:  # numpy would read "0.3" as 0.3
        raise ValueError("p must hold numbers, not strings or other objects")
    p = p.astype(float, copy=False)
    if not np.all(np.isfinite(p)):
        raise ValueError("p must be finite")
    if np.any(p < WEIGHT_MARGIN):
        raise ValueError(f"all weights must be >= {WEIGHT_MARGIN}; got min {p.min()}")
    p_last = 1.0 - float(p.sum())
    if p_last < WEIGHT_MARGIN:
        raise ValueError(
            f"weights must leave at least {WEIGHT_MARGIN} for the last cell; "
            f"sum(p) = {p.sum()}"
        )
    prefix = np.cumsum(p)
    return ProbabilityWeights(
        p=_frozen(p),
        p_last=p_last,
        prefix=_frozen(prefix),
        p_full=_frozen(np.append(p, p_last)),
    )


def _is_bool(x) -> bool:
    return isinstance(x, (bool, np.bool_))


def _validate_thresholds(k) -> np.ndarray:
    # numpy reads [1, True] as integers, so a listed bool is looked for first
    listed_bool = isinstance(k, (list, tuple)) and any(map(_is_bool, k))
    k = np.asarray(k)
    if k.ndim != 1 or k.size == 0:
        raise ValueError("k must be a non-empty 1-d vector")
    if listed_bool or k.dtype == np.bool_:
        raise ValueError("thresholds must be integers, not booleans")
    if k.dtype.kind not in _NUMBER_KINDS:
        raise ValueError("thresholds must be integers, not strings or other objects")
    if not np.issubdtype(k.dtype, np.integer):
        kf = np.asarray(k, dtype=float)
        if not np.all(np.isfinite(kf) & (kf == np.floor(kf))):
            raise ValueError("thresholds must be integers")
        k = kf
    if np.any(k < 0):
        raise ValueError("thresholds must be nonnegative")
    if sum(map(int, k.tolist())) > _INT64_MAX:  # exact, before the int64 cast
        raise ValueError(f"the threshold sum must not exceed {_INT64_MAX} (int64)")
    return k.astype(np.int64)


@dataclass(frozen=True, eq=False)
class SurvivalInstance:
    """A fully derived problem instance ``(n, p, k)``.

    Derived quantities follow the change of variables behind the integral
    routes: ``j_i = kappa_i - kappa_{i-1}`` for ``i <= d`` (so ``j_i = k_i``),
    ``j_{d+1} = n + 1 - kappa_d``, ``J_i = j_i - 1`` and ``N = n - d``.  The
    relative offsets ``eps_i = (J_i/N - p_i)/p_i`` and ``eps_tilde = p * eps``
    exist only when ``N >= 1``; otherwise both are ``None``.
    """

    n: int
    weights: ProbabilityWeights
    k: np.ndarray                 # shape (d,), nonnegative integer thresholds
    kappa: np.ndarray             # kappa[i-1] = k_1 + ... + k_i
    N: int
    j: np.ndarray                 # shape (d+1,), integer gaps, sum = n + 1
    J: np.ndarray                 # j - 1, sum = N
    eps: np.ndarray | None        # shape (d+1,) or None when N < 1
    eps_tilde: np.ndarray | None  # p_full * eps, bitwise

    @property
    def d(self) -> int:
        return self.weights.d

    @property
    def p(self) -> np.ndarray:
        return self.weights.p

    @property
    def impossible(self) -> bool:
        """True when ``kappa_d > n``: the survival event has probability 0."""
        return int(self.kappa[-1]) > self.n

    @cached_property
    def gaussian_block_reason(self) -> str | None:
        if self.N < 1:
            return "N <= 0"
        if not np.all(self.J >= 1):
            return "J_i = 0"
        return None


def build_instance(n, p, k) -> SurvivalInstance:
    """Build and fully derive a survival-probability instance.

    Parameters
    ----------
    n : int
        Number of trials, ``>= 1``, with ``n + 1`` within int64.
    p : array_like, shape (d,)
        Cell weights; must satisfy the ``make_weights`` constraints.
    k : array_like, shape (d,)
        Nonnegative integer thresholds on the cumulated counts, whose sum
        ``kappa_d`` is within int64.

    Returns
    -------
    SurvivalInstance

    Notes
    -----
    No feasibility is imposed on ``k`` beyond integrality and nonnegativity:
    ``kappa_d > n`` yields a valid instance whose survival probability is 0,
    and zero thresholds merely make the instance ineligible for the integral
    routes until :func:`reduce_thresholds` is applied.
    """
    return _derive(_positive_n(n), make_weights(p), k)


def instance_with_weights(n, weights: ProbabilityWeights, k) -> SurvivalInstance:
    """:func:`build_instance` with weights already validated, so that
    instances of one weight vector (the rows of a sweep) share them."""
    return _derive(_positive_n(n), weights, k)


def _positive_n(n) -> int:
    try:
        valid = not _is_bool(n) and int(n) == n and n >= 1
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n >= _INT64_MAX:
        raise ValueError(f"n must be below {_INT64_MAX} (n + 1 must fit in int64), got {n}")
    return int(n)


def _derive(n: int, weights: ProbabilityWeights, k) -> SurvivalInstance:
    k = _validate_thresholds(k)
    if weights.d != k.shape[0]:
        raise ValueError(f"p and k must have the same length; got {weights.d} and {k.shape[0]}")
    d = weights.d
    kappa = np.cumsum(k)
    j = np.empty(d + 1, dtype=np.int64)
    j[0] = kappa[0]
    j[1:d] = kappa[1:] - kappa[:-1]
    j[d] = n + 1 - kappa[-1]
    J = j - 1
    N = n - d

    eps = eps_tilde = None
    if N >= 1:
        p_full = weights.p_full
        eps = (J / N - p_full) / p_full
        # eps_tilde = p*eps holds bitwise by construction; it equals
        # J/N - p_full up to one rounding.
        eps_tilde = p_full * eps
        eps = _frozen(eps)
        eps_tilde = _frozen(eps_tilde)

    return SurvivalInstance(
        n=n,
        weights=weights,
        k=_frozen(k, np.int64),
        kappa=_frozen(kappa, np.int64),
        N=N,
        j=_frozen(j, np.int64),
        J=_frozen(J, np.int64),
        eps=eps,
        eps_tilde=eps_tilde,
    )


def reduce_thresholds(p, k):
    """Drop zero thresholds by merging their cells forward.

    A threshold ``k_i = 0`` makes constraint i redundant (counts are
    nonnegative), so cell i can be absorbed into cell i+1 without changing the
    survival probability; a trailing zero cell is absorbed by the implicit
    last cell.  The returned pair has all thresholds ``>= 1`` and may be empty
    (all constraints vacuous, survival probability 1).

    Returns
    -------
    (ndarray, ndarray)
        Reduced weights and thresholds, possibly of length 0.
    """
    p = np.asarray(p, dtype=float)
    k = np.asarray(k, dtype=np.int64)
    if p.shape != k.shape or p.ndim != 1:
        raise ValueError("p and k must be 1-d vectors of equal length")
    out_p: list[float] = []
    out_k: list[int] = []
    carry = 0.0
    for pi, ki in zip(p, k):
        if ki == 0:
            carry += pi
        else:
            out_p.append(pi + carry)
            out_k.append(int(ki))
            carry = 0.0
    return np.asarray(out_p, dtype=float), np.asarray(out_k, dtype=np.int64)


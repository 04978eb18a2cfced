"""Problem instances for joint survival probabilities of cumulated multinomial counts.

The event of interest is ``P(X_1 + ... + X_i >= kappa_i for all i <= d)`` where
``X ~ Multinomial(n, p)`` over d+1 cells, ``k`` holds the per-cell thresholds
and ``kappa`` their running sums.  This module validates inputs, derives the
integer gap vectors ``j``/``J`` and the relative offsets ``eps``/``eps_tilde``
used by the integral routes, and merges away zero thresholds.
"""

from __future__ import annotations

import itertools
import math
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

# The numpy dtype kinds of p that are read as numbers: signed and unsigned
# integers and floats.
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
    log_normaliser : float
        ``(d ln(2 pi) + log_det) / 2``, the log of the normalising constant
        of the normal density with that covariance; cached.
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

    @cached_property
    def log_normaliser(self) -> float:
        return 0.5 * (self.d * math.log(2.0 * math.pi) + self.log_det)


def make_weights(p) -> ProbabilityWeights:
    """Validate a weight vector and derive prefix sums and the implicit cell.

    Raises
    ------
    ValueError
        If any ``p_i`` or the implied last weight sits within ``WEIGHT_MARGIN``
        of zero, or the vector is empty / not one-dimensional, or holds
        strings or other non-numbers.
    """
    p = np.asarray(_vector(p, "p must be a non-empty 1-d vector of probabilities"))
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


def _vector(x, message) -> list | tuple:
    """``x`` as a list or tuple: one is taken as it is, anything else is read
    by numpy and must be 1-d.  Raises ``ValueError(message)`` when the
    vector is empty or holds a list or tuple (it is nested or ragged)."""
    if not isinstance(x, (list, tuple)):
        x = np.asarray(x)
        if x.ndim != 1:
            raise ValueError(message)
        x = x.tolist()
    if not x or any(isinstance(v, (list, tuple)) for v in x):
        raise ValueError(message)
    return x


def _is_bool(x) -> bool:
    return isinstance(x, (bool, np.bool_))


def _validate_thresholds(k, d) -> list:
    """The thresholds as a list of Python ints, each within int64, one for
    each of the ``d`` weights."""
    k = _vector(k, "k must be a non-empty 1-d vector")
    if not all(type(x) is int for x in k):  # the common case, plain ints, skips this
        if any(map(_is_bool, k)):
            raise ValueError("thresholds must be integers, not booleans")
        if not all(isinstance(x, (int, float, np.integer, np.floating)) for x in k):
            raise ValueError("thresholds must be integers, not strings or other objects")
        # ints first: converting one past the largest float to float overflows
        if not all(isinstance(x, (int, np.integer)) or float(x).is_integer() for x in k):
            raise ValueError("thresholds must be integers")
        k = [int(x) for x in k]
    if min(k) < 0:
        raise ValueError("thresholds must be nonnegative")
    if sum(k) > _INT64_MAX:
        raise ValueError(f"the threshold sum must not exceed {_INT64_MAX} (int64)")
    if d != len(k):
        raise ValueError(f"p and k must have the same length; got {d} and {len(k)}")
    return list(k)


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
        if min(self.J.tolist()) < 1:
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
    # Python ints and floats on d+1 entries, which numpy calls would cost
    # more than; every int stays within int64 and every float operation is
    # the one numpy's would be.
    d = weights.d
    k = _validate_thresholds(k, d)
    kappa = list(itertools.accumulate(k))
    j = k + [n + 1 - kappa[-1]]
    J = [x - 1 for x in j]
    N = n - d

    eps = eps_tilde = None
    if N >= 1:
        # J_i / N as numpy divides int64 arrays, each side cast to float64
        # first; Python's exactly rounded int division differs past 2^53
        fN = float(N)
        p_full = weights.p_full.tolist()
        eps = [(float(Ji) / fN - p) / p for Ji, p in zip(J, p_full)]
        # eps_tilde = p*eps holds bitwise by construction; it equals
        # J/N - p_full up to one rounding.
        eps_tilde = _frozen([p * e for p, e in zip(p_full, eps)])
        eps = _frozen(eps)

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
    (all constraints vacuous, survival probability 1); an empty pair is
    returned as such.  Any other ``p`` and ``k`` are read as
    :func:`build_instance` reads them, and what it refuses raises its
    ``ValueError``.

    Returns
    -------
    (ndarray, ndarray)
        Reduced weights and thresholds, possibly of length 0.
    """
    out_p: list[float] = []
    out_k: list[int] = []
    if not (_empty(p) and _empty(k)):
        weights = make_weights(p)
        carry = 0.0
        for pi, ki in zip(weights.p.tolist(), _validate_thresholds(k, weights.d)):
            if ki == 0:
                carry += pi
            else:
                out_p.append(pi + carry)
                out_k.append(ki)
                carry = 0.0
    return np.array(out_p, dtype=float), np.array(out_k, dtype=np.int64)


def _empty(x) -> bool:
    """Whether ``x`` is an empty list, tuple or 1-d array."""
    return isinstance(x, (list, tuple)) and not x or getattr(x, "shape", None) == (0,)


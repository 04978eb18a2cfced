"""Independent oracle for the joint survival probability.

The cumulated counts ``S_i = X_1 + ... + X_i`` of ``X ~ Multinomial(n, p)``
form a Markov chain: given ``S_{i-1} = s``, the next step ``S_i - s`` is
``Binomial(n - s, p_i / (1 - p_1 - ... - p_{i-1}))``.  The survival
probability ``P(S_i >= kappa_i for all i)`` is therefore a d-step forward
recursion on the distribution of ``S_i`` over ``0..n``, truncated below
``kappa_i`` after each step.  Each step is one ``(n+1) x (n+1)`` transition
matrix, so the cost is ``O(d n^2)`` whatever the thresholds.

The distribution of ``S_i`` and the transition matrices are held as
logarithms, and each step is a log-sum-exp over the previous value of
``S_{i-1}``, so deep tails neither underflow nor lose relative accuracy.
None of this code shares anything with ``mnsurv``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom


def log_transition_matrices(n, p):
    """``L_i[s, t] = log P(S_i = t | S_{i-1} = s)``, ``-inf`` where ``t < s``.

    They depend on ``(n, p)`` only, so a sweep over thresholds reuses them.
    """
    s = np.arange(n + 1)
    step = s[None, :] - s[:, None]          # t - s
    trials = (n - s)[:, None]
    mats = []
    remaining = 1.0
    for pi in p:
        q = min(pi / remaining, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # log(pmf) keeps the pmf's few-ulp accuracy; logpmf, whose large
            # log-gamma terms cancel, only where the pmf itself underflows
            pmf = binom.pmf(step, trials, q)
            m = np.where(pmf > 1e-290, np.log(pmf), binom.logpmf(step, trials, q))
        mats.append(np.where(step >= 0, m, -np.inf))
        remaining -= pi
    return mats


def _logsumexp(a, axis):
    top = np.max(a, axis=axis)
    safe = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return safe + np.log(np.sum(np.exp(a - np.expand_dims(safe, axis)), axis=axis))


def log_survival(n, p, k, mats=None):
    """Natural log of ``P(S_i >= kappa_i, i = 1..d)``; ``-inf`` if impossible."""
    kappa = np.cumsum(np.asarray(k, dtype=np.int64))
    if len(kappa) != len(p):
        raise ValueError("p and k must have the same length")
    if kappa[-1] > n:
        return -math.inf
    if mats is None:
        mats = log_transition_matrices(n, p)
    logf = np.full(n + 1, -np.inf)
    logf[0] = 0.0
    for m, kap in zip(mats, kappa):
        logf = _logsumexp(logf[:, None] + m, axis=0)
        logf[:kap] = -np.inf
    return float(_logsumexp(logf, axis=0))


def survival(n, p, k, mats=None):
    """``P(X_1 + ... + X_i >= k_1 + ... + k_i for all i)``."""
    return math.exp(log_survival(n, p, k, mats))

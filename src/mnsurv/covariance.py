"""Closed-form algebra for the multinomial covariance kernel.

For weights ``p`` over d+1 cells the d-dimensional covariance kernel is
``Sigma = diag(p) - p p^T`` with the classical closed forms

* inverse entries ``(Sigma^-1)_{ij} = 1/p_i * 1(i=j) + 1/p_{d+1}``,
* determinant ``p_1 * ... * p_d * p_{d+1}``.

Everything here evaluates those closed forms; dense linear algebra appears
only in the test suite as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ProbabilityWeights

__all__ = [
    "CovarianceStructure",
    "covariance_structure",
    "sigma_matrix",
    "sigma_inverse_matrix",
    "sigma_inverse_entry",
    "quad_form",
    "bilinear_form",
    "log_mvn_density",
    "last_axis_sum",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class CovarianceStructure:
    """The covariance kernel of a weight vector with its log-determinant."""

    weights: ProbabilityWeights
    sigma: np.ndarray   # shape (d, d)
    log_det: float      # sum of log(p_i) over all d+1 cells


def covariance_structure(weights: ProbabilityWeights) -> CovarianceStructure:
    sigma = sigma_matrix(weights)
    sigma.setflags(write=False)
    return CovarianceStructure(weights=weights, sigma=sigma, log_det=log_det(weights))


def sigma_matrix(weights: ProbabilityWeights) -> np.ndarray:
    """Dense ``diag(p) - p p^T``."""
    p = weights.p
    return np.diag(p) - np.outer(p, p)


def sigma_inverse_matrix(weights: ProbabilityWeights) -> np.ndarray:
    """Dense inverse built from the closed-form entries."""
    return np.diag(1.0 / weights.p) + 1.0 / weights.p_last


def sigma_inverse_entry(weights: ProbabilityWeights, i: int, j: int) -> float:
    """Closed-form inverse entry for 1-based cell indices ``i, j``."""
    d = weights.d
    if not (1 <= i <= d and 1 <= j <= d):
        raise IndexError(f"indices must be in [1, {d}], got ({i}, {j})")
    val = 1.0 / weights.p_last
    if i == j:
        val += 1.0 / weights.p[i - 1]
    return val


def quad_form(weights: ProbabilityWeights, x) -> float | np.ndarray:
    """Quadratic form ``x^T Sigma^-1 x`` via the closed-form inverse.

    ``x`` may be a single d-vector or an array of shape (..., d); the result
    drops the last axis.  Equals ``sum(x_i^2 / p_i) + (sum x_i)^2 / p_last``.
    """
    x = _check_last_axis(weights, x)
    total = _scaled_dot(x, x, weights.p)
    total += last_axis_sum(x) ** 2 / weights.p_last
    return total if total.ndim else float(total)


def bilinear_form(weights: ProbabilityWeights, x, y) -> float | np.ndarray:
    """Bilinear form ``x^T Sigma^-1 y``; broadcasts over leading axes."""
    x = _check_last_axis(weights, x)
    y = _check_last_axis(weights, y)
    total = _scaled_dot(x, y, weights.p)
    total += last_axis_sum(x) * last_axis_sum(y) / weights.p_last
    return total if total.ndim else float(total)


def log_det(weights: ProbabilityWeights) -> float:
    return float(np.sum(np.log(weights.p_full)))


def log_mvn_density(weights: ProbabilityWeights, x) -> float | np.ndarray:
    """Log-density at ``x`` of the centered normal with covariance ``Sigma``.

    Accepts a single point or an array of shape (..., d).
    """
    q = quad_form(weights, x)
    return -0.5 * q - 0.5 * (weights.d * _LOG_2PI + log_det(weights))


# Sums over the last axis below go one coordinate at a time from the first.
# A batch of points stored in Fortran order has each coordinate as one
# contiguous column, so every step is a single long vector operation with
# column-sized temporaries, and the fixed left-to-right order gives the same
# bits for C- and Fortran-ordered input.

def last_axis_sum(x) -> np.ndarray:
    """``sum_i x_i`` over the last axis."""
    total = np.array(x[..., 0])
    for i in range(1, x.shape[-1]):
        total += x[..., i]
    return total


def _scaled_dot(x, y, p):
    """``sum_i x_i y_i / p_i`` over the last axis; broadcasts ``x`` and ``y``."""
    total = x[..., 0] * y[..., 0]
    total /= p[0]
    for i in range(1, p.shape[0]):
        term = x[..., i] * y[..., i]
        term /= p[i]
        total += term
    return total


def _check_last_axis(weights: ProbabilityWeights, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != weights.d:
        raise ValueError(f"last axis must have length {weights.d}, got shape {x.shape}")
    return x

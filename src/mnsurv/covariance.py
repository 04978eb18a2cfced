"""Closed-form algebra for the multinomial covariance kernel.

For weights ``p`` over d+1 cells the d-dimensional covariance kernel is
``Sigma = diag(p) - p p^T`` with the classical closed forms

* inverse entries ``(Sigma^-1)_{ij} = 1/p_i * 1(i=j) + 1/p_{d+1}``,
* determinant ``p_1 * ... * p_d * p_{d+1}``, whose log is
  :attr:`ProbabilityWeights.log_det <mnsurv.model.ProbabilityWeights.log_det>`.

Everything here evaluates those closed forms; dense linear algebra appears
only in the test suite as an independent oracle.  Points are plain arrays
whose last axis holds the d coordinates.
"""

from __future__ import annotations

import numpy as np

from .model import ProbabilityWeights

__all__ = [
    "sigma_matrix",
    "sigma_inverse_matrix",
    "quad_form",
    "log_mvn_density",
    "coordinate_sum",
]


def sigma_matrix(weights: ProbabilityWeights) -> np.ndarray:
    """Dense ``diag(p) - p p^T``."""
    p = weights.p
    return np.diag(p) - np.outer(p, p)


def sigma_inverse_matrix(weights: ProbabilityWeights) -> np.ndarray:
    """Dense inverse built from the closed-form entries."""
    return np.diag(1.0 / weights.p) + 1.0 / weights.p_last


def quad_form(weights: ProbabilityWeights, x) -> float | np.ndarray:
    """Quadratic form ``x^T Sigma^-1 x`` via the closed-form inverse.

    ``x`` may be a single d-vector or an array of shape (..., d); the result
    has the leading shape.  Equals ``sum(x_i^2 / p_i) + (sum x_i)^2 /
    p_last``.  Sums over coordinates run left to right, one coordinate at a
    time, so a point gives the same bits alone and as a row of a batch.
    """
    return _scalar_or_array(_quad_form(weights.p, weights.p_last, _checked_points(weights, x)))


def log_mvn_density(weights: ProbabilityWeights, x) -> float | np.ndarray:
    """Log-density at ``x`` of the centered normal with covariance ``Sigma``.

    Accepts a single point or an array of shape (..., d).  The log of the
    normalising constant is ``weights.log_normaliser``, which the weights
    compute once and keep.
    """
    out = _quad_form(weights.p, weights.p_last, _checked_points(weights, x))
    out *= -0.5
    out -= weights.log_normaliser
    return _scalar_or_array(out)


def coordinate_sum(x) -> np.ndarray:
    """``x[..., 0] + x[..., 1] + ...``, left to right, as a new array.

    ``np.sum(axis=-1)`` does not promise this order.
    """
    total = np.array(x[..., 0])
    for i in range(1, x.shape[-1]):
        total += x[..., i]
    return total


def _quad_form(p, p_last, x):
    """:func:`quad_form` of the points ``x`` under the weights ``p`` (the
    last axis holds the d coordinates) and ``p_last``, which may hold one
    row of weights per point: a row gets the bits of its point alone."""
    total = _scaled_dot(x, x, p)
    square = coordinate_sum(x)
    square *= square
    square /= p_last
    total += square
    return total


def _scaled_dot(x, y, p):
    """``sum_i x_i y_i / p_i`` over the coordinates; broadcasts ``x``, ``y``
    and ``p``."""
    total = x[..., 0] * y[..., 0]
    total /= p[..., 0]
    for i in range(1, p.shape[-1]):
        term = x[..., i] * y[..., i]
        term /= p[..., i]
        total += term
    return total


def _scalar_or_array(value):
    return value if value.ndim else float(value)


def _checked_points(weights: ProbabilityWeights, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != weights.d:
        raise ValueError(f"points must have {weights.d} coordinates, got shape {x.shape}")
    return x

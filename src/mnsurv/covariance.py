"""Closed-form algebra for the multinomial covariance kernel.

For weights ``p`` over d+1 cells the d-dimensional covariance kernel is
``Sigma = diag(p) - p p^T`` with the classical closed forms

* inverse entries ``(Sigma^-1)_{ij} = 1/p_i * 1(i=j) + 1/p_{d+1}``,
* determinant ``p_1 * ... * p_d * p_{d+1}``, whose log is
  :attr:`ProbabilityWeights.log_det <mnsurv.model.ProbabilityWeights.log_det>`.

Everything here evaluates those closed forms; dense linear algebra appears
only in the test suite as an independent oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ProbabilityWeights

__all__ = [
    "sigma_matrix",
    "sigma_inverse_matrix",
    "sigma_inverse_entry",
    "quad_form",
    "bilinear_form",
    "log_mvn_density",
    "last_axis_sum",
    "as_columns",
]

_LOG_2PI = math.log(2.0 * math.pi)


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

    ``x`` may be a single d-vector, an array of shape (..., d) or a tuple of
    d broadcastable coordinate columns (see :func:`as_columns`); the result
    has the leading (broadcast) shape.  Equals
    ``sum(x_i^2 / p_i) + (sum x_i)^2 / p_last``.
    """
    return _scalar_or_array(_quad_form(weights, _checked_columns(weights, x)))


def bilinear_form(weights: ProbabilityWeights, x, y) -> float | np.ndarray:
    """Bilinear form ``x^T Sigma^-1 y``; broadcasts over leading axes."""
    x = _checked_columns(weights, x)
    y = _checked_columns(weights, y)
    total = _scaled_dot(x, y, weights.p)
    cross = _column_sum(x) * _column_sum(y)
    cross /= weights.p_last
    return _scalar_or_array(_add_into(total, cross))


def log_mvn_density(weights: ProbabilityWeights, x) -> float | np.ndarray:
    """Log-density at ``x`` of the centered normal with covariance ``Sigma``.

    Accepts a single point, an array of shape (..., d) or a tuple of
    coordinate columns.  The log-determinant is ``weights.log_det``, which
    the weights compute once and keep.
    """
    out = _quad_form(weights, _checked_columns(weights, x))
    out *= -0.5
    out -= 0.5 * (weights.d * _LOG_2PI + weights.log_det)
    return _scalar_or_array(out)


# Batches of points travel as coordinate columns: one array per coordinate,
# all mutually broadcastable.  A quadrature block passes its outer
# coordinates as (rows, 1) columns, so any work done on them alone runs once
# per row.  Sums over coordinates go left to right from the first column,
# growing to the broadcast shape only when a larger column joins, which
# gives the same bits as summing the materialised points column by column.

def as_columns(x) -> tuple:
    """Coordinate columns of a point or a batch of points.

    A tuple is taken as the columns themselves; anything else is read as an
    array of shape (..., k) and split into the views ``x[..., i]`` (numpy
    scalars for a single point).
    """
    if isinstance(x, tuple):
        return tuple([np.asarray(c, dtype=float) for c in x])
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise ValueError("a point needs at least one axis")
    return tuple(x.transpose(-1, *range(x.ndim - 1)))


def last_axis_sum(x) -> np.ndarray:
    """``sum_i x_i`` over the coordinates, as a new array."""
    return _column_sum(as_columns(x))


def _column_sum(x):
    total = np.array(x[0])
    for col in x[1:]:
        total = _add_into(total, col)
    return total


def _quad_form(weights, x):
    total = _scaled_dot(x, x, weights.p)
    square = _column_sum(x)
    square *= square
    square /= weights.p_last
    return _add_into(total, square)


def _scaled_dot(x, y, p):
    """``sum_i x_i y_i / p_i`` over the columns; broadcasts ``x`` and ``y``."""
    total = x[0] * y[0]
    total /= p[0]
    for i in range(1, p.shape[0]):
        term = x[i] * y[i]
        term /= p[i]
        total = _add_into(total, term)
    return total


def _add_into(total, term):
    """``total + term``, in place unless ``term`` has the larger shape."""
    if term.ndim > total.ndim or term.size > total.size:
        return total + term
    total += term
    return total


def _scalar_or_array(value):
    return value if value.ndim else float(value)


def _checked_columns(weights: ProbabilityWeights, x) -> tuple:
    cols = as_columns(x)
    if len(cols) != weights.d:
        raise ValueError(f"points must have {weights.d} coordinates, got {len(cols)}")
    return cols

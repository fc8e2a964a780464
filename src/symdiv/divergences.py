"""Closed-form evaluation of the classic divergence measures.

All logarithms are natural, including the Kullback-Leibler form: the
identity J = 4(JS + AG) only holds with a single consistent base.
HELLINGER here is the (1 - Bhattacharyya) normalization, so the affinity
measures BHATTACHARYYA and HARMONIC are <= 1 with equality iff P = Q,
while every other kind is >= 0 with equality iff P = Q. CHI2 and KL are
the only directional kinds; the first argument plays the role of P.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InputError
from .simplex import Distribution, RatioBounds, _real, _require_same_dim


class MeasureKind(Enum):
    HELLINGER = "HELLINGER"
    BHATTACHARYYA = "BHATTACHARYYA"
    TRIANGULAR = "TRIANGULAR"
    HARMONIC = "HARMONIC"
    SYM_CHI2 = "SYM_CHI2"
    CHI2 = "CHI2"
    KL = "KL"
    J = "J"
    JS = "JS"
    AG = "AG"
    D_NEW = "D_NEW"
    TOTAL_VARIATION = "TOTAL_VARIATION"


DIRECTIONAL_KINDS = frozenset({MeasureKind.CHI2, MeasureKind.KL})
# affinities: <= 1 with equality iff P = Q, instead of >= 0
AFFINITY_KINDS = frozenset({MeasureKind.BHATTACHARYYA, MeasureKind.HARMONIC})


def classic_divergence(kind: MeasureKind, p: Distribution, q: Distribution) -> float:
    """Evaluate one classic measure by direct summation of its formula."""
    _require_same_dim(p, q)
    return float(_classic(kind, p.weights, q.weights))


def _classic(kind: MeasureKind, a: np.ndarray, b: np.ndarray):
    """classic_divergence summed over the last axis: one value per pair of rows."""
    if kind is MeasureKind.HELLINGER:
        return ((np.sqrt(a) - np.sqrt(b)) ** 2).sum(axis=-1) / 2.0
    if kind is MeasureKind.BHATTACHARYYA:
        return np.sqrt(a * b).sum(axis=-1)
    if kind is MeasureKind.TRIANGULAR:
        return ((a - b) ** 2 / (a + b)).sum(axis=-1)
    if kind is MeasureKind.HARMONIC:
        return (2.0 * a * b / (a + b)).sum(axis=-1)
    if kind is MeasureKind.SYM_CHI2:
        return ((a - b) ** 2 * (a + b) / (a * b)).sum(axis=-1)
    if kind is MeasureKind.CHI2:
        return ((a - b) ** 2 / b).sum(axis=-1)
    if kind is MeasureKind.KL:
        return (a * np.log(a / b)).sum(axis=-1)
    if kind is MeasureKind.J:
        return ((a - b) * np.log(a / b)).sum(axis=-1)
    if kind is MeasureKind.JS:
        m = (a + b) / 2.0
        return (a * np.log(a / m) + b * np.log(b / m)).sum(axis=-1) / 2.0
    if kind is MeasureKind.AG:
        m = (a + b) / 2.0
        return (m * np.log(m / np.sqrt(a * b))).sum(axis=-1)
    if kind is MeasureKind.D_NEW:
        # evaluated exactly as defined; the formula is numerically benign
        affinity = (((np.sqrt(a) + np.sqrt(b)) / 2.0) * np.sqrt((a + b) / 2.0)).sum(axis=-1)
        return 1.0 - affinity
    if kind is MeasureKind.TOTAL_VARIATION:
        return np.abs(a - b).sum(axis=-1)
    raise InputError("PARAMETER_OUT_OF_RANGE", f"unknown measure kind {kind!r}")


def vajda_abs_chi(m: float, p: Distribution, q: Distribution) -> float:
    """Absolute chi divergence of order m >= 1: sum |p - q|^m / q^(m-1).

    Order 1 is total variation, order 2 is Pearson chi-square, order 3 is
    the absolute cubic chi used by the third-derivative bounds.
    """
    _check_order(m)
    _require_same_dim(p, q)
    return float(_abs_chi(m, p.weights, q.weights))


def _check_order(m: float) -> None:
    if not (_real(m) and m >= 1.0 and np.isfinite(m)):
        raise InputError("PARAMETER_OUT_OF_RANGE", f"order must satisfy m >= 1, got {m}")


def _abs_chi(m, a: np.ndarray, b: np.ndarray):
    """vajda_abs_chi summed over the last axis, for validated orders m (``_power``)."""
    return (_power(np.abs(a - b), m) / _power(b, m - 1.0)).sum(axis=-1)


def vajda_upper_bounds(m: float, rb: RatioBounds) -> tuple[float, float]:
    """Two nested upper bounds on the order-m absolute chi divergence.

    For ratios confined to [r, R]:

        bound1 = ((1-r)(R-1)/(R-r)) * ((1-r)^(m-1) + (R-1)^(m-1))
        bound2 = ((R-r)/2)^m

    with bound1 <= bound2, and bound1 attained exactly by two-point pairs.
    """
    _check_order(m)
    return tuple(float(v[0]) for v in _vajda_bounds(m, *rb.ends()))


def _vajda_bounds(m, r: np.ndarray, R: np.ndarray):
    """vajda_upper_bounds over 1-D arrays of ratio ranges with r < R."""
    bound1 = ((1.0 - r) * (R - 1.0) / (R - r)) * (
        _power(1.0 - r, m - 1.0) + _power(R - 1.0, m - 1.0))
    bound2 = _power((R - r) / 2.0, m)
    return bound1, bound2


def vajda_variation_coefficients(m: float, rb: RatioBounds) -> tuple[float, float]:
    """Coefficients c_lo, c_hi with the claim c_lo*V <= |chi|^m <= c_hi*V.

    The upper coefficient (R^m - 1)/(R - 1) is sound. The lower
    coefficient (1 - r^m)/(1 - r) overestimates in general (desk
    counterexample at m = 2 on two-point pairs), so callers must treat
    the lower claim as diagnostic only.
    """
    _check_order(m)
    return tuple(float(v[0]) for v in _vajda_coefficients(m, *rb.ends()))


def _vajda_coefficients(m, r: np.ndarray, R: np.ndarray):
    """vajda_variation_coefficients over 1-D arrays of ratio ranges with r < R."""
    return (1.0 - _power(r, m)) / (1.0 - r), (_power(R, m) - 1.0) / (R - 1.0)


def _column(orders, ndim: int):
    """One order as it is; a grid of them (1-D) as a column over ``ndim`` more axes."""
    if not isinstance(orders, (tuple, list, np.ndarray)):
        return orders
    return np.array(orders, float).reshape(-1, *[1] * ndim)


def _power(x, e):
    """x ** e for one exponent e or a column of them (``_column``). numpy takes
    sqrt, square or reciprocal for a scalar e in {0.5, 2, -1}, but may take
    plain pow for a column; those rows are recomputed as scalar powers, so
    every row has the bits of the scalar evaluation."""
    if not isinstance(e, np.ndarray):
        return x ** e
    out = np.power(x, e)
    for row, value in enumerate(e.ravel().tolist()):
        if value in (0.5, 2.0, -1.0):  # x leads with the grid axis, or broadcasts along it
            out[row] = (x if np.ndim(x) < out.ndim else x[min(row, len(x) - 1)]) ** value
    return out

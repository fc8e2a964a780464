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
from .families import _blocked, _column, _r_values, _v_values, _w_values
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


def _hellinger(a, b):
    """(sqrt a - sqrt b)^2 / 2 as ((a - b)/(sqrt a + sqrt b))^2 / 2, exact near a = b."""
    root = np.sqrt(a)
    root += np.sqrt(b)
    out = a - b
    out /= root
    out *= out
    out *= 0.5
    return out


# the classic measures that are family members: (family sum, order)
_MEMBERS = {MeasureKind.J: (_v_values, 0.0), MeasureKind.JS: (_w_values, 0.0),
            MeasureKind.AG: (_w_values, 1.0), MeasureKind.KL: (_r_values, 1.0)}
# the summands of the others, each single-signed
_SUMMANDS = {
    MeasureKind.HELLINGER: _hellinger,
    MeasureKind.BHATTACHARYYA: lambda a, b: np.sqrt(a * b),
    MeasureKind.TRIANGULAR: lambda a, b: (a - b) ** 2 / (a + b),
    MeasureKind.HARMONIC: lambda a, b: 2.0 * a * b / (a + b),
    MeasureKind.SYM_CHI2: lambda a, b: (a - b) ** 2 * (a + b) / (a * b),
    MeasureKind.CHI2: lambda a, b: (a - b) ** 2 / b,
    MeasureKind.TOTAL_VARIATION: lambda a, b: np.abs(a - b),
}


def classic_divergence(kind: MeasureKind, p: Distribution, q: Distribution) -> float:
    """Evaluate one classic measure by direct summation of its formula."""
    _require_same_dim(p, q)
    return float(_classic(kind, p.weights, q.weights))


def _classic(kind: MeasureKind, a: np.ndarray, b: np.ndarray, total=None):
    """classic_divergence summed over the last axis (or by ``total``, see ``_blocked``)."""
    if not isinstance(kind, MeasureKind):
        raise InputError("PARAMETER_OUT_OF_RANGE", f"unknown measure kind {kind!r}")
    if kind in _MEMBERS:
        values, order = _MEMBERS[kind]
        return values(_column(order, a.ndim), a, b, total)
    if kind is MeasureKind.D_NEW:  # as defined: 1 - sum affinity
        return 1.0 - _blocked(
            lambda a, b: ((np.sqrt(a) + np.sqrt(b)) / 2.0) * np.sqrt((a + b) / 2.0), a, b, total)
    return _blocked(_SUMMANDS[kind], a, b, total)


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


def _abs_chi(m: float, a: np.ndarray, b: np.ndarray, total=None):
    """vajda_abs_chi summed over the last axis (or by ``total``), for one validated order m."""
    return _blocked(lambda a, b: _abs_chi_terms(m, np.abs(a - b), b), a, b, total)


def _abs_chi_terms(m, size, b):
    """|chi|^m's summands from size = |a - b|; at m = 1, size itself."""
    return size if m == 1.0 else np.power(size, m) / np.power(b, m - 1.0)


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
    """vajda_upper_bounds at one order m over 1-D arrays of ratio ranges with r < R."""
    bound1 = ((1.0 - r) * (R - 1.0) / (R - r)) * (
        np.power(1.0 - r, m - 1.0) + np.power(R - 1.0, m - 1.0))
    bound2 = np.power((R - r) / 2.0, m)
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
    """vajda_variation_coefficients at one order m over 1-D arrays of ranges with r < R."""
    return (1.0 - np.power(r, m)) / (1.0 - r), (np.power(R, m) - 1.0) / (R - 1.0)

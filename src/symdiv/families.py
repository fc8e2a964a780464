"""One-parameter divergence families and their convex generators.

Three families share the order parameter ``s``:

* ``relative_information_type_s`` -- the power-family deformation of
  Kullback-Leibler divergence (KL(Q||P) at s = 0, KL(P||Q) at s = 1).
* ``j_divergence_type_s`` -- its symmetrization V_s, equal to J at
  s in {0, 1}, 8*Hellinger at s = 1/2, half the symmetric chi-square at
  s in {-1, 2}. Symmetric under s <-> 1-s.
* ``ag_js_divergence_type_s`` -- the mixture family W_s, equal to
  triangular/4 at s = -1, JS at s = 0, 4*d at s = 1/2, AG at s = 1 and
  symmetric chi-square/16 at s = 2.

``generator_eval`` exposes the two convex normalized generators backing
these families (tags PHI for the V family, PSI for the W family) together
with their first three derivatives, which the bound engine consumes.

Evaluation near the removable singularities at s in {0, 1} dispatches to
the closed-form limit branch whenever ``|s - s0| <= LIMIT_TOLERANCE``, and
the limit branches of the families are the classic measures themselves
(J, JS, AG, KL). The prefactor 1/(s(s-1)) amplifies float rounding near
the poles, and the near-pole contract (family values within 1e-8 of the
limit at s0 +- 1e-5) pins the width at 1e-5: inside the window the limit
form is both the contract and the numerically accurate answer.
The bound engine evaluates the generators on 1-D arrays, one value per
pair, so a single pair and a stack of pairs round alike.

The evaluators take s as a float (plain ``x ** s``) or as a column over a
grid of orders whose axis leads the result; each formula is written once.
Grid rows inside a window take their limit form by mask, and the grid
power (``divergences._power``) gives every row the scalar's bits.

Family sums subtract the unit mass per term (e.g. ``p^s q^(1-s) - sp -
(1-s)q``) rather than subtracting 1 from the total, which keeps every
summand single-signed and avoids inheriting the small float defect of the
weight sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .divergences import MeasureKind, _classic, _power
from .errors import DomainError, InputError
from .simplex import Distribution, _real, _require_same_dim

LIMIT_TOLERANCE = 1e-5
# window edges carry a 1e-6 relative cushion: decimal constants like 1 + 1e-5
# are not dyadic, so |s - 1| can exceed the literal tolerance by representation
# error alone
_WINDOW = LIMIT_TOLERANCE * (1.0 + 1e-6)


@dataclass(frozen=True)
class FamilyParam:
    """A validated family order s: a finite real number (not a bool), as a float."""

    s: float

    def __post_init__(self):
        if not _real(self.s):
            raise InputError("PARAMETER_OUT_OF_RANGE",
                             f"family order must be a real number, got {self.s!r}")
        object.__setattr__(self, "s", float(self.s))
        if not np.isfinite(self.s):
            raise InputError("PARAMETER_OUT_OF_RANGE", f"family order must be finite, got {self.s}")


class GeneratorFamilyKind(Enum):
    PHI = "PHI"  # generator of the V family
    PSI = "PSI"  # generator of the W family


def as_param(s: float | FamilyParam) -> FamilyParam:
    return s if isinstance(s, FamilyParam) else FamilyParam(s)


def _branch(s, general, at_zero, at_one):
    """``general(s)``, or the limit form ``at_zero()`` / ``at_one()`` inside
    the window of 0 / 1. A grid column runs ``general`` on every row, with
    the order 1/4 for the rows inside a window (its powers stay small and
    take no special numpy path), then masks them."""
    zero, one = abs(s) <= _WINDOW, abs(s - 1.0) <= _WINDOW
    if not isinstance(s, np.ndarray):
        return at_zero() if zero else at_one() if one else general(s)
    out = general(np.where(zero | one, 0.25, s))
    for inside, form in ((zero, at_zero), (one, at_one)):
        if inside.any():
            out = np.where(inside.reshape((-1,) + (1,) * (out.ndim - 1)), form(), out)
    return out


def _over_poles(terms: np.ndarray, s):
    """The family sum: ``terms`` summed over the last axis, over s(s - 1)."""
    return (terms.sum(axis=-1, keepdims=True) / (s * (s - 1.0)))[..., 0]


# ---------------------------------------------------------------------------
# families over distribution pairs
# ---------------------------------------------------------------------------

def relative_information_type_s(s: float | FamilyParam, p: Distribution,
                                q: Distribution) -> float:
    sv = as_param(s).s
    _require_same_dim(p, q)
    a, b = p.weights, q.weights
    return float(_branch(
        sv, lambda s: _over_poles(_power(a, s) * _power(b, 1.0 - s) - s * a - (1.0 - s) * b, s),
        lambda: _classic(MeasureKind.KL, b, a), lambda: _classic(MeasureKind.KL, a, b)))


def j_divergence_type_s(s: float | FamilyParam, p: Distribution,
                        q: Distribution) -> float:
    sv = as_param(s).s
    _require_same_dim(p, q)
    return float(_v_values(sv, p.weights, q.weights))


def ag_js_divergence_type_s(s: float | FamilyParam, p: Distribution,
                            q: Distribution) -> float:
    sv = as_param(s).s
    _require_same_dim(p, q)
    return float(_w_values(sv, p.weights, q.weights))


# V_s and W_s summed over the last axis of weight arrays: one value per pair
# of rows, and for a column of orders one row of them per order

def _v_values(s, a: np.ndarray, b: np.ndarray):
    j = lambda: _classic(MeasureKind.J, a, b)
    return _branch(s, lambda s: _over_poles(
        _power(a, s) * _power(b, 1.0 - s) + _power(a, 1.0 - s) * _power(b, s) - (a + b), s), j, j)


def _w_values(s, a: np.ndarray, b: np.ndarray):
    def general(s):
        m = (a + b) / 2.0
        return _over_poles(((_power(a, 1.0 - s) + _power(b, 1.0 - s)) / 2.0) * _power(m, s) - m, s)
    return _branch(s, general, lambda: _classic(MeasureKind.JS, a, b),
                   lambda: _classic(MeasureKind.AG, a, b))


# ---------------------------------------------------------------------------
# generator functions phi_s (V family) and psi_s (W family)
# ---------------------------------------------------------------------------

def generator_eval(family: GeneratorFamilyKind, s: float | FamilyParam,
                   x, order: int = 0):
    """Evaluate a family generator or one of its first three derivatives.

    ``x`` may be a positive scalar or array; the result matches its shape.
    Orders 2 and 3 have pole-free expressions valid for every ``s``; the
    value and first derivative dispatch to their limit branches near
    s in {0, 1}.
    """
    sv = as_param(s).s
    if order not in (0, 1, 2, 3):
        raise InputError("UNSUPPORTED_ORDER", f"derivative order must be 0..3, got {order}")
    xv = _argument(x)  # the argument is checked before the family
    out = _family_eval(family)(sv, xv, order)
    return out if np.ndim(x) else float(out)


def _family_eval(family: GeneratorFamilyKind):
    """The evaluator (s, x, order) of a generator family; refuses anything else.
    s is one order, or a column of them that broadcasts against x."""
    if not isinstance(family, GeneratorFamilyKind):
        raise InputError("PARAMETER_OUT_OF_RANGE", f"unknown generator family {family!r}")
    return _phi_eval if family is GeneratorFamilyKind.PHI else _psi_eval


def _argument(x) -> np.ndarray:
    """A generator argument as a float array, refused unless finite and > 0."""
    xv = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xv)) or np.any(xv <= 0.0):
        raise DomainError("NONPOSITIVE_ARGUMENT", "generator argument must be finite and > 0")
    return xv


def _phi_eval(s, x: np.ndarray, order: int):
    if order == 0:
        log_form = lambda: (x - 1.0) * np.log(x)
        return _branch(s, lambda s: (_power(x, s) + _power(x, 1.0 - s) - (1.0 + x))
                       / (s * (s - 1.0)), log_form, log_form)
    if order == 1:
        log_form = lambda: 1.0 - 1.0 / x + np.log(x)
        return _branch(s, lambda s: (s * _power(x, s - 1.0) + (1.0 - s) * _power(x, -s) - 1.0)
                       / (s * (s - 1.0)), log_form, log_form)
    if order == 2:
        return _power(x, s - 2.0) + _power(x, -s - 1.0)
    return -((2.0 - s) * _power(x, s - 3.0) + (s + 1.0) * _power(x, -s - 2.0))


def _psi_eval(s, x: np.ndarray, order: int):
    half = (x + 1.0) / 2.0
    if order == 0:
        return _branch(
            s, lambda s: (((_power(x, 1.0 - s) + 1.0) / 2.0) * _power(half, s) - half)
            / (s * (s - 1.0)),
            lambda: (x / 2.0) * np.log(x) - half * np.log(half),
            lambda: half * np.log(half / np.sqrt(x)))
    if order == 1:
        return _branch(
            s, lambda s: (((1.0 - s) / 2.0) * _power(x, -s) * _power(half, s)
                          + (s / 4.0) * (_power(x, 1.0 - s) + 1.0) * _power(half, s - 1.0)
                          - 0.5) / (s * (s - 1.0)),
            lambda: -0.5 * np.log(half / x),
            lambda: (1.0 - 1.0 / x - np.log(x) + 2.0 * np.log(half)) / 4.0)
    if order == 2:
        return ((_power(x, -s - 1.0) + 1.0) / 8.0) * _power(half, s - 2.0)
    return -(_power(half, s) / (2.0 * (x + 1.0) ** 3)) * (
        3.0 * _power(x, -s - 1.0) + (s + 1.0) * _power(x, -s - 2.0) + (2.0 - s))

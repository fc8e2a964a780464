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

Family sums subtract the unit mass per term (e.g. ``p^s q^(1-s) - sp -
(1-s)q``) rather than subtracting 1 from the total, which keeps every
summand single-signed and avoids inheriting the small float defect of the
weight sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .divergences import MeasureKind, _classic
from .errors import DomainError, InputError
from .simplex import Distribution, _require_same_dim

LIMIT_TOLERANCE = 1e-5


@dataclass(frozen=True)
class FamilyParam:
    """A validated family order s."""

    s: float

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise InputError("PARAMETER_OUT_OF_RANGE", f"family order must be finite, got {self.s}")

    # window edges carry a 1e-6 relative cushion: decimal constants like
    # 1 + 1e-5 are not dyadic, so |s - 1| can exceed the literal tolerance
    # by representation error alone
    @property
    def near_zero(self) -> bool:
        return abs(self.s) <= LIMIT_TOLERANCE * (1.0 + 1e-6)

    @property
    def near_one(self) -> bool:
        return abs(self.s - 1.0) <= LIMIT_TOLERANCE * (1.0 + 1e-6)


class GeneratorFamilyKind(Enum):
    PHI = "PHI"  # generator of the V family
    PSI = "PSI"  # generator of the W family


def as_param(s: float | FamilyParam) -> FamilyParam:
    return s if isinstance(s, FamilyParam) else FamilyParam(float(s))


# ---------------------------------------------------------------------------
# families over distribution pairs
# ---------------------------------------------------------------------------

def relative_information_type_s(s: float | FamilyParam, p: Distribution,
                                q: Distribution) -> float:
    sp = as_param(s)
    _require_same_dim(p, q)
    a, b = p.weights, q.weights
    if sp.near_zero:
        return float(_classic(MeasureKind.KL, b, a))
    if sp.near_one:
        return float(_classic(MeasureKind.KL, a, b))
    sv = sp.s
    terms = a ** sv * b ** (1.0 - sv) - sv * a - (1.0 - sv) * b
    return float(terms.sum() / (sv * (sv - 1.0)))


def j_divergence_type_s(s: float | FamilyParam, p: Distribution,
                        q: Distribution) -> float:
    sp = as_param(s)
    _require_same_dim(p, q)
    return float(_v_values(sp, p.weights, q.weights))


def ag_js_divergence_type_s(s: float | FamilyParam, p: Distribution,
                            q: Distribution) -> float:
    sp = as_param(s)
    _require_same_dim(p, q)
    return float(_w_values(sp, p.weights, q.weights))


# V_s and W_s summed over the last axis of weight arrays: one value per pair of rows

def _v_values(sp: FamilyParam, a: np.ndarray, b: np.ndarray):
    if sp.near_zero or sp.near_one:
        return _classic(MeasureKind.J, a, b)
    sv = sp.s
    terms = a ** sv * b ** (1.0 - sv) + a ** (1.0 - sv) * b ** sv - (a + b)
    return terms.sum(axis=-1) / (sv * (sv - 1.0))


def _w_values(sp: FamilyParam, a: np.ndarray, b: np.ndarray):
    if sp.near_zero:
        return _classic(MeasureKind.JS, a, b)
    if sp.near_one:
        return _classic(MeasureKind.AG, a, b)
    sv = sp.s
    m = (a + b) / 2.0
    terms = ((a ** (1.0 - sv) + b ** (1.0 - sv)) / 2.0) * m ** sv - m
    return terms.sum(axis=-1) / (sv * (sv - 1.0))


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
    sp = as_param(s)
    if order not in (0, 1, 2, 3):
        raise InputError("UNSUPPORTED_ORDER", f"derivative order must be 0..3, got {order}")
    xv = _argument(x)  # the argument is checked before the family
    out = _family_eval(family)(sp, xv, order)
    return out if np.ndim(x) else float(out)


def _family_eval(family: GeneratorFamilyKind):
    """The evaluator (s, x, order) of a generator family; refuses anything else."""
    if not isinstance(family, GeneratorFamilyKind):
        raise InputError("PARAMETER_OUT_OF_RANGE", f"unknown generator family {family!r}")
    return _phi_eval if family is GeneratorFamilyKind.PHI else _psi_eval


def _argument(x) -> np.ndarray:
    """A generator argument as a float array, refused unless finite and > 0."""
    xv = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xv)) or np.any(xv <= 0.0):
        raise DomainError("NONPOSITIVE_ARGUMENT", "generator argument must be finite and > 0")
    return xv


def _phi_eval(sp: FamilyParam, x: np.ndarray, order: int):
    sv = sp.s
    if order == 0:
        if sp.near_zero or sp.near_one:
            return (x - 1.0) * np.log(x)
        return (x ** sv + x ** (1.0 - sv) - (1.0 + x)) / (sv * (sv - 1.0))
    if order == 1:
        if sp.near_zero or sp.near_one:
            return 1.0 - 1.0 / x + np.log(x)
        return (sv * x ** (sv - 1.0) + (1.0 - sv) * x ** (-sv) - 1.0) / (sv * (sv - 1.0))
    if order == 2:
        return x ** (sv - 2.0) + x ** (-sv - 1.0)
    return -((2.0 - sv) * x ** (sv - 3.0) + (sv + 1.0) * x ** (-sv - 2.0))


def _psi_eval(sp: FamilyParam, x: np.ndarray, order: int):
    sv = sp.s
    half = (x + 1.0) / 2.0
    if order == 0:
        if sp.near_zero:
            return (x / 2.0) * np.log(x) - half * np.log(half)
        if sp.near_one:
            return half * np.log(half / np.sqrt(x))
        return (((x ** (1.0 - sv) + 1.0) / 2.0) * half ** sv - half) / (sv * (sv - 1.0))
    if order == 1:
        if sp.near_zero:
            return -0.5 * np.log(half / x)
        if sp.near_one:
            return (1.0 - 1.0 / x - np.log(x) + 2.0 * np.log(half)) / 4.0
        return (((1.0 - sv) / 2.0) * x ** (-sv) * half ** sv
                + (sv / 4.0) * (x ** (1.0 - sv) + 1.0) * half ** (sv - 1.0)
                - 0.5) / (sv * (sv - 1.0))
    if order == 2:
        return ((x ** (-sv - 1.0) + 1.0) / 8.0) * half ** (sv - 2.0)
    return -(half ** sv / (2.0 * (x + 1.0) ** 3)) * (
        3.0 * x ** (-sv - 1.0) + (sv + 1.0) * x ** (-sv - 2.0) + (2.0 - sv))

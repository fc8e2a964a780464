"""Generic f-divergence evaluation and the bound engine built on it.

Given a convex normalized generator f (f(1) = 0), the divergence of P
against Q is ``sum q_i f(p_i/q_i)``. For a pair whose likelihood ratios
live in [r, R] with r < 1 < R, the engine assembles:

* the linearized functionals E = sum (p-q) f'(p/q) and its midpoint
  variant E* = sum (p-q) f'((p+q)/(2q));
* the endpoint bounds A = (R-r)(f'(R)-f'(r))/4 and the chord value
  B = ((R-1)f(r) + (1-r)f(R))/(R-r), with 0 <= C_f <= B <= A and
  C_f <= E <= A;
* the curvature drop delta = |f''(r) - f''(R)| (a valid spread of f''
  over [r, R] only when f'' is monotonic), the sup of |f'''| over [r, R]
  (exact for the family generators: see ``family_generator``), and the
  total variation of f' (= f'(R) - f'(r) for convex f);
* the Ostrowski-style deviation bounds

      |C_f - E/2|  <= min( delta*chi2/8, f3_sup*|chi|^3/12, variation*V )
      |C_f - E*|   <= min( delta*chi2/8, f3_sup*|chi|^3/24, variation*V/2 )

  where each min runs over the terms whose derivative data is available.

Generators are immutable evaluation bundles; all operations are pure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .divergences import MeasureKind, classic_divergence, vajda_abs_chi
from .errors import DomainError, InputError
from .families import (FamilyParam, GeneratorFamilyKind, _phi_eval, _psi_eval,
                       as_param, generator_eval)
from .simplex import Distribution, RatioBounds, _require_same_dim, ratio_bounds

_SPOT_GRID = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
_COMPARE_GRID_POINTS = 1024
_GOLDEN_TOL = 1e-10


class Curvature(Enum):
    DECREASING = "DECREASING"
    INCREASING = "INCREASING"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Generator:
    """A convex normalized generator with analytic derivatives.

    ``evaluate(order, x)`` must accept order 0..max_order and positive
    array arguments. ``curvature_monotonicity`` records whether f'' is
    monotonic on (0, inf); when it is UNKNOWN the curvature-drop bound is
    unavailable. ``third_sup_closed_form(r, R)`` may supply the exact sup
    of |f'''| over each [r_i, R_i] of two 1-D arrays, one value per lane;
    without it the third-derivative bound is unavailable. The bound engine
    evaluates on 1-D arrays of ratio-range ends, one value per pair, for one
    pair and for a stack alike: there is no per-pair path.
    """

    name: str
    evaluate: Callable[[int, np.ndarray], np.ndarray]
    max_order: int = 3
    curvature_monotonicity: Curvature = Curvature.UNKNOWN
    third_sup_closed_form: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.max_order < 2:
            raise DomainError("MISSING_DERIVATIVE",
                              "a generator must provide at least orders 0..2")
        at_one = float(self.evaluate(0, np.array([1.0]))[0])
        if abs(at_one) > 1e-12:
            raise DomainError("GENERATOR_DOMAIN",
                              f"generator {self.name!r} is not normalized: f(1) = {at_one!r}")
        curvature = np.asarray(self.evaluate(2, _SPOT_GRID), dtype=float)
        if not np.all(np.isfinite(curvature)) or np.any(curvature <= 0.0):
            raise DomainError("GENERATOR_DOMAIN",
                              f"generator {self.name!r} must have f'' > 0 (checked on a spot grid)")

    def eval(self, order: int, x):
        if not (0 <= order <= self.max_order):
            raise InputError("UNSUPPORTED_ORDER",
                             f"generator {self.name!r} supports orders 0..{self.max_order}, got {order}")
        xv = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(xv)) or np.any(xv <= 0.0):
            raise DomainError("NONPOSITIVE_ARGUMENT", "generator argument must be finite and > 0")
        out = np.asarray(self.evaluate(order, xv), dtype=float)
        if not np.all(np.isfinite(out)):
            raise DomainError("GENERATOR_DOMAIN",
                              f"generator {self.name!r} evaluation failed at order {order}")
        return out if np.ndim(x) else float(out)


def family_generator(kind: GeneratorFamilyKind, s: float | FamilyParam) -> Generator:
    """Bundle one of the built-in family generators at a fixed order s.

    f'' is monotonically decreasing exactly for s in [-1, 2] (both
    families). ``third_sup_closed_form`` is exact at every s: the largest
    |f'''| at r, at R and at the stationary points of f''' inside (r, R).
    """
    sp = as_param(s)
    sv = sp.s
    core = _phi_eval if kind is GeneratorFamilyKind.PHI else _psi_eval

    def evaluate(order: int, x: np.ndarray) -> np.ndarray:
        # Generator.eval has already validated order and domain
        return core(sp, np.asarray(x, dtype=float), order)

    def third_sup(r: np.ndarray, big_r: np.ndarray) -> np.ndarray:
        inner = (_phi_stationary(sv) if kind is GeneratorFamilyKind.PHI
                 else _psi_stationary(sv, r, big_r))
        # a lane whose (r, R) misses a stationary point takes r in its place
        points = [r, big_r] + [np.where((r < x) & (x < big_r), x, r) for x in inner]
        return np.abs(evaluate(3, np.stack(points))).max(axis=0)

    return Generator(
        name=f"{kind.value}(s={sv:g})",
        evaluate=evaluate,
        max_order=3,
        curvature_monotonicity=Curvature.DECREASING if -1.0 <= sv <= 2.0 else Curvature.UNKNOWN,
        third_sup_closed_form=third_sup,
    )


def _phi_stationary(s: float) -> tuple[float, ...]:
    """phi_s'''' = 0 at x^(2s-1) = (s+1)(s+2)/((2-s)(s-3)), a positive
    ratio only for s in (-2, -1) and (2, 3)."""
    num, den = (s + 1.0) * (s + 2.0), (2.0 - s) * (s - 3.0)
    return ((num / den) ** (1.0 / (2.0 * s - 1.0)),) if num * den > 0.0 else ()


def _psi_stationary(s: float, r: np.ndarray, big_r: np.ndarray) -> tuple[float, ...]:
    """The roots of G(x) = (2-s)(s-3)x^(s+3) - 12x^2 - 8(s+1)x - (s+1)(s+2),
    where d/dx log|psi_s'''| vanishes, in the hull of every [r, R] and 1.

    G depends on s only, so one solve serves every lane. G'' = c4 x^(s+1)
    - 24 has at most one positive root x2, so G' is monotone on each side of
    x2, and G between consecutive roots of G'; each root is bisected in
    t = log x on G'/x and G/x^2.
    """
    c3 = (2.0 - s) * (s - 3.0)
    c4 = c3 * (s + 3.0) * (s + 2.0)
    dg = lambda t: c3 * (s + 3.0) * np.exp((s + 1.0) * t) - 24.0 - 8.0 * (s + 1.0) * np.exp(-t)
    g = lambda t: (c3 * np.exp((s + 1.0) * t) - 12.0 - 8.0 * (s + 1.0) * np.exp(-t)
                   - (s + 1.0) * (s + 2.0) * np.exp(-2.0 * t))
    t_lo, t_hi = np.log(r.min(initial=1.0)), np.log(big_r.max(initial=1.0))
    t2 = np.log(24.0 / c4) / (s + 1.0) if c4 > 0.0 else t_lo
    cuts = np.array([t_lo, min(max(t2, t_lo), t_hi), t_hi])
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (dg, g):
            roots = _bisect(fn, cuts[:-1], cuts[1:])
            cuts = np.concatenate(([t_lo], np.where(np.isnan(roots), cuts[:-1], roots), [t_hi]))
    return tuple(np.exp(roots[~np.isnan(roots)]).tolist())


def _bisect(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A root of fn in each bracket [a, b] whose ends differ in sign, else
    nan; 64 halvings narrow any bracket of log x below x's float spacing."""
    sign_a = np.signbit(fn(a))
    live = sign_a != np.signbit(fn(b))
    if not live.any():
        return np.full(a.shape, np.nan)
    for _ in range(64):
        mid = 0.5 * (a + b)
        right = np.signbit(fn(mid)) == sign_a
        a, b = np.where(right, mid, a), np.where(right, b, mid)
    return np.where(live, 0.5 * (a + b), np.nan)


# ---------------------------------------------------------------------------
# divergence and linear functionals
# ---------------------------------------------------------------------------

def csiszar_divergence(gen: Generator, p: Distribution, q: Distribution) -> float:
    """sum q_i f(p_i / q_i); nonnegative for convex normalized f."""
    _require_same_dim(p, q)
    return float(_divergence(gen, p.weights, q.weights))


def linearized_functionals(gen: Generator, p: Distribution,
                           q: Distribution) -> tuple[float, float]:
    """The pair (E, E*) of first-order functionals of the generator."""
    _require_same_dim(p, q)
    e, e_star = _linearized(gen, p.weights, q.weights)
    return float(e), float(e_star)


# the sums over the last axis of weight arrays: one value per pair of rows

def _divergence(gen: Generator, a: np.ndarray, b: np.ndarray):
    return (b * gen.eval(0, a / b)).sum(axis=-1)


def _linearized(gen: Generator, a: np.ndarray, b: np.ndarray):
    e = ((a - b) * gen.eval(1, a / b)).sum(axis=-1)
    e_star = ((a - b) * gen.eval(1, (a + b) / (2.0 * b))).sum(axis=-1)
    return e, e_star


# ---------------------------------------------------------------------------
# endpoint and smoothness bounds over [r, R]
# ---------------------------------------------------------------------------

def endpoint_bounds(gen: Generator, rb: RatioBounds) -> tuple[float, float]:
    """(A, B): the quarter-spread slope bound and the chord evaluation."""
    if rb.degenerate:
        raise DomainError("DEGENERATE_BOUNDS", "ratio bounds are degenerate (P = Q)")
    a_bound, b_bound = _endpoints(gen, np.array([rb.r]), np.array([rb.R]))
    return float(a_bound[0]), float(b_bound[0])


def smoothness_bounds(gen: Generator, rb: RatioBounds
                      ) -> tuple[Optional[float], Optional[float], float]:
    """(delta, f3_sup, variation) for the deviation bounds.

    delta is |f''(r) - f''(R)|, reported only when f'' is known to be
    monotonic (otherwise the endpoint values do not bracket f''). f3_sup
    is the generator's ``third_sup_closed_form``, exact for the family
    generators at every s; it is None for a generator without one, even at
    max_order 3, and the deviation bounds are then the min over the
    remaining terms. variation is f'(R) - f'(r), always available.
    """
    if rb.degenerate:
        raise DomainError("DEGENERATE_BOUNDS", "ratio bounds are degenerate (P = Q)")
    delta, f3_sup, variation = _smoothness(gen, np.array([rb.r]), np.array([rb.R]))
    return (None if delta is None else float(delta[0]),
            None if f3_sup is None else float(f3_sup[0]), float(variation[0]))


# the generator's endpoint and smoothness quantities: 1-D arrays r, R -> one value per pair

def _endpoints(gen: Generator, r: np.ndarray, big_r: np.ndarray):
    a_bound = 0.25 * (big_r - r) * (gen.eval(1, big_r) - gen.eval(1, r))
    b_bound = ((big_r - 1.0) * gen.eval(0, r) + (1.0 - r) * gen.eval(0, big_r)) / (big_r - r)
    return a_bound, b_bound


def _smoothness(gen: Generator, r: np.ndarray, big_r: np.ndarray):
    """(delta, f3_sup, variation); delta and f3_sup may be None."""
    delta = None
    if gen.curvature_monotonicity is not Curvature.UNKNOWN:
        delta = np.abs(gen.eval(2, r) - gen.eval(2, big_r))

    sup = gen.third_sup_closed_form
    f3_sup = None if sup is None else sup(r, big_r)

    variation = gen.eval(1, big_r) - gen.eval(1, r)
    return delta, f3_sup, variation


def _deviation_bounds(delta, f3_sup, variation, chi2, abs_chi3, tv):
    """(half_E_bound, E_star_bound): each the min over the terms whose
    derivative data is available (delta and f3_sup may be None)."""
    half = variation * tv
    star = 0.5 * variation * tv
    if delta is not None:
        half = np.minimum(half, delta * chi2 / 8.0)
        star = np.minimum(star, delta * chi2 / 8.0)
    if f3_sup is not None:
        half = np.minimum(half, f3_sup * abs_chi3 / 12.0)
        star = np.minimum(star, f3_sup * abs_chi3 / 24.0)
    return half, star


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Every bound-engine quantity for one (generator, P, Q) triple.

    Bound fields are None when P = Q: the endpoint machinery requires
    r != R. ``half_E_bound`` bounds |value - linearized/2| and
    ``E_star_bound`` bounds |value - linearized_mid|.
    """

    generator: str
    value: float
    linearized: float
    linearized_mid: float
    endpoint_A: Optional[float]
    endpoint_B: Optional[float]
    delta: Optional[float]
    f3_sup: Optional[float]
    variation: Optional[float]
    chi2: float
    abs_chi3: float
    total_variation: float
    half_E_bound: Optional[float]
    E_star_bound: Optional[float]
    ratio_bounds: RatioBounds

    def to_json_dict(self) -> dict:
        """The fields in declaration order, ratio_bounds as {r, R, degenerate},
        without the unavailable (None) ones."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def bound_report(gen: Generator, p: Distribution, q: Distribution) -> BoundReport:
    """Assemble the divergence value and every applicable bound for a pair."""
    _require_same_dim(p, q)
    rb = ratio_bounds(p, q)
    value = csiszar_divergence(gen, p, q)
    e, e_star = linearized_functionals(gen, p, q)
    chi2 = classic_divergence(MeasureKind.CHI2, p, q)
    abs_chi3 = vajda_abs_chi(3.0, p, q)
    tv = classic_divergence(MeasureKind.TOTAL_VARIATION, p, q)
    if rb.degenerate:
        return BoundReport(gen.name, value, e, e_star, None, None, None, None,
                           None, chi2, abs_chi3, tv, None, None, rb)
    a_bound, b_bound = endpoint_bounds(gen, rb)
    delta, f3_sup, variation = smoothness_bounds(gen, rb)
    half, star = _deviation_bounds(delta, f3_sup, variation, chi2, abs_chi3, tv)
    return BoundReport(gen.name, value, e, e_star, a_bound, b_bound, delta,
                       f3_sup, variation, chi2, abs_chi3, tv,
                       float(half), float(star), rb)


# ---------------------------------------------------------------------------
# generator comparison (curvature-ratio extremization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonBounds:
    """Extrema of f1''/f2'' over [r, R], with the locations that attain them.

    They certify m_ratio * C_f2 <= C_f1 <= M_ratio * C_f2 for every pair
    whose likelihood ratios stay inside [r, R].
    """

    m_ratio: float
    M_ratio: float
    m_location: float
    M_location: float


def compare_generators(gen1: Generator, gen2: Generator, rb: RatioBounds) -> ComparisonBounds:
    """Extremize the curvature ratio by geometric grid plus golden section."""
    if rb.degenerate:
        raise DomainError("DEGENERATE_BOUNDS", "ratio bounds are degenerate (P = Q)")
    xs = np.geomspace(rb.r, rb.R, _COMPARE_GRID_POINTS)
    denom = gen2.eval(2, xs)
    if np.any(denom <= 0.0):
        raise DomainError("NONCONVEX_REFERENCE",
                          f"reference generator {gen2.name!r} has f'' <= 0 on [r, R]")

    def ratio(x: float) -> float:
        # x stays inside the validated [r, R]; one-element arrays round as the grid
        at = np.array([x])
        return float(np.asarray(gen1.evaluate(2, at), dtype=float)[0]
                     / np.asarray(gen2.evaluate(2, at), dtype=float)[0])

    values = gen1.eval(2, xs) / denom
    lo_x, lo_v = _refine(ratio, xs, values, int(values.argmin()), minimize=True)
    hi_x, hi_v = _refine(ratio, xs, values, int(values.argmax()), minimize=False)
    return ComparisonBounds(m_ratio=lo_v, M_ratio=hi_v, m_location=lo_x, M_location=hi_x)


def curvature_ratio(s: float | FamilyParam, t: float | FamilyParam, x) -> float:
    """psi_s'' / phi_t'' at x: the ratio extremized by the W-vs-V bounds."""
    num = generator_eval(GeneratorFamilyKind.PSI, s, x, 2)
    den = generator_eval(GeneratorFamilyKind.PHI, t, x, 2)
    return num / den


# internal extremization helpers --------------------------------------------

def _refine(fn, xs: np.ndarray, values: np.ndarray, idx: int, minimize: bool,
            tol: float = _GOLDEN_TOL) -> tuple[float, float]:
    """Golden-section polish inside the grid cells adjacent to the best grid
    point xs[idx], for fn on floats. The polished point replaces the grid
    point unless the grid point is strictly better."""
    a, b = xs[max(idx - 1, 0)], xs[min(idx + 1, xs.size - 1)]
    sign = 1.0 if minimize else -1.0
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = sign * fn(c), sign * fn(d)
    while b - a > tol:
        if fc < fd:  # keep [a, d] and probe a new c
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sign * fn(c)
        else:  # keep [c, b] and probe a new d
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sign * fn(d)
    x_best = (a + b) / 2.0
    f_best = fn(x_best)
    x_grid, f_grid = float(xs[idx]), float(values[idx])
    use_grid = f_grid < f_best if minimize else f_grid > f_best
    return (x_grid, f_grid) if use_grid else (float(x_best), f_best)

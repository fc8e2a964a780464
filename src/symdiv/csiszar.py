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

import functools
import math
import warnings
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .divergences import _abs_chi
from .errors import _FILTERS, DomainError, InputError
from .families import (FamilyParam, GeneratorFamilyKind, _argument, _column, _family_eval,
                       _phi_terms, _psi_terms, _staged, as_param, generator_eval)
from .simplex import Distribution, RatioBounds, _ratio_range, _require_same_dim

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
    float arrays. ``curvature_monotonicity`` records whether f'' is
    monotonic on (0, inf); when it is UNKNOWN the curvature-drop bound is
    unavailable. ``third_sup_closed_form(r, R)`` may supply the exact sup
    of |f'''| over each [r_i, R_i] of two 1-D arrays, one value per lane;
    without it the third-derivative bound is unavailable.
    ``terms(a, b, offsets, pairs, value, slopes)`` may return a report's summands
    b f(x) (if ``value``), (a - b) f'(x) and (a - b) f'(x*) (if ``slopes``),
    x = a/b and x* = (a + b)/(2b), on a 1-D block of one pair's weights or of a
    sweep run's (``pairs`` reduces it per pair), with the order-free rows from
    ``offsets(stage, a, b, *earlier)`` (the family memo's); a family generator's
    are stage two of V's or W's sum. Without it f and f' are evaluated at x and
    x*. ``eval`` is the checked public entry.
    The engine's kernels call ``evaluate`` and ``terms`` unchecked, on 1-D
    arrays of ratio-range ends or validated weights, one value per pair; each
    public function refuses the first of its fields that is not finite, in the
    order it computes them, naming the generator order that field comes from
    (``_checked``). The family generators take a column of orders; over a grid
    (the sweep's) the name and flag are tuples, the results lead with the grid
    axis, and the construction checks name the first failing order.
    """

    name: str | tuple[str, ...]
    evaluate: Callable[[int, np.ndarray], np.ndarray]
    max_order: int = 3
    curvature_monotonicity: Curvature | tuple[Curvature, ...] = Curvature.UNKNOWN
    third_sup_closed_form: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    terms: Optional[Callable[..., list]] = None

    def __post_init__(self):
        if self.max_order < 2:
            raise DomainError("MISSING_DERIVATIVE",
                              "a generator must provide at least orders 0..2")
        names = (self.name,) if isinstance(self.name, str) else self.name
        at_one = np.asarray(self.evaluate(0, np.array([1.0]))).reshape(len(names))
        with _FILTERS, warnings.catch_warnings():  # f'' may overflow; np.errstate slows ufuncs
            warnings.simplefilter("ignore", RuntimeWarning)
            curvature = np.asarray(self.evaluate(2, _SPOT_GRID)).reshape(len(names), -1)
        unnormalized = np.abs(at_one) > 1e-12
        failed = unnormalized | ~(curvature > 0.0).all(axis=1)  # NaN fails too
        if failed.any():  # the first failing order, normalization before curvature
            row = int(failed.argmax())
            problem = (f"is not normalized: f(1) = {float(at_one[row])!r}" if unnormalized[row]
                       else "must have f'' > 0 (checked on a spot grid)")
            raise DomainError("GENERATOR_DOMAIN", f"generator {names[row]!r} {problem}")

    def eval(self, order: int, x):
        if order not in range(self.max_order + 1):
            raise InputError("UNSUPPORTED_ORDER",
                             f"generator {self.name!r} supports orders 0..{self.max_order}, got {order}")
        out = np.asarray(self.evaluate(order, _argument(x)), dtype=float)
        if not np.isfinite(out).all():
            raise _failed(self, order)
        return out if np.ndim(x) else float(out.reshape(-1)[0])


def _failed(gen: Generator, order: int) -> DomainError:
    """The refusal of a value of gen's derivative ``order`` that is not finite."""
    return DomainError("GENERATOR_DOMAIN", f"generator {gen.name!r} evaluation failed at order {order}")


def family_generator(kind: GeneratorFamilyKind, s: float | FamilyParam) -> Generator:
    """Bundle one of the built-in family generators at a fixed order s.

    f'' is monotonically decreasing exactly for s in [-1, 2] (both
    families). ``third_sup_closed_form`` is exact at every s: the largest
    |f'''| at r, at R and at the stationary points of f''' inside (r, R).
    Those points depend on s alone: each order's are solved once per process.
    A generator is kept per kind and order, keyed on the order's bits (so -0.0
    is not 0.0), in a bounded cache.
    """
    s = as_param(s).s
    _family_eval(kind)  # refused before the cache hashes it
    return _cached_generator(kind, s.hex())


_cached_generator = functools.lru_cache(maxsize=256)(
    lambda kind, order: _family_generator(kind, float.fromhex(order)))


def _family_generator(kind: GeneratorFamilyKind, s) -> Generator:
    """``family_generator`` at one validated order s, or at a 1-D array s of
    them: one generator for a whole grid, whose results lead with the grid
    axis, one row per order, with the checks and stationary points per row.
    One order is a column of one: only its name and flag are squeezed."""
    s = np.asarray(s, dtype=float)
    core, orders = _family_eval(kind), s.reshape(-1).tolist()
    solve = _phi_stationary if kind is GeneratorFamilyKind.PHI else _psi_stationary
    terms = _phi_terms if kind is GeneratorFamilyKind.PHI else _psi_terms

    @functools.cache
    def stationary() -> list:
        # the k-th point of every order, NaN where an order has fewer: a NaN
        # lies inside no (r, R)
        roots = [solve(v) for v in orders]
        return [np.array([xs[k] if k < len(xs) else np.nan for xs in roots]).reshape(s.shape + (1,))
                for k in range(max(map(len, roots)))]

    def evaluate(order: int, x: np.ndarray) -> np.ndarray:
        return core(_column(s, np.ndim(x)), x, order)

    def third_sup(r: np.ndarray, big_r: np.ndarray) -> np.ndarray:
        ends = np.abs(evaluate(3, np.array([r, big_r])))
        sup = np.maximum(ends[..., 0, :], ends[..., 1, :])
        for x in stationary():  # one point per order, against the lanes
            at = np.abs(core(_column(s, 1), x, 3))
            sup = np.where((r < x) & (x < big_r), np.maximum(sup, at), sup)
        return sup

    names = tuple(f"{kind.value}(s={v:g})" for v in orders)
    flags = tuple(Curvature.DECREASING if -1.0 <= v <= 2.0 else Curvature.UNKNOWN for v in orders)
    return Generator(
        name=names if s.ndim else names[0], evaluate=evaluate, max_order=3,
        curvature_monotonicity=flags if s.ndim else flags[0], third_sup_closed_form=third_sup,
        terms=lambda a, b, *rest: terms(_column(s, np.ndim(a)), a, b, *rest),
    )


@functools.lru_cache(maxsize=256)
def _phi_stationary(s: float) -> tuple[float, ...]:
    """phi_s'''' = 0 at x^(2s-1) = (s+1)(s+2)/((2-s)(s-3)), a positive
    ratio only for s in (-2, -1) and (2, 3)."""
    num, den = (s + 1.0) * (s + 2.0), (2.0 - s) * (s - 3.0)
    return ((num / den) ** (1.0 / (2.0 * s - 1.0)),) if num * den > 0.0 else ()


@functools.lru_cache(maxsize=256)
def _psi_stationary(s: float) -> tuple[float, ...]:
    """The positive roots of G(x) = (2-s)(s-3)x^(s+3) - 12x^2 - 8(s+1)x
    - (s+1)(s+2), where d/dx log|psi_s'''| vanishes, that are finite doubles.

    G depends on s alone, so one solve serves every pair. G'' = c4 x^(s+1)
    - 24 has at most one positive root x2, so G' is monotone on each side
    of x2, and G between consecutive roots of G'. Each root is bisected in
    t = log x, on G'/x and G/x^2, over the t of every finite positive
    double: 64 halvings of that range reach 8e-17 in t, x's relative error.
    """
    c3 = (2.0 - s) * (s - 3.0)
    c4 = c3 * (s + 3.0) * (s + 2.0)
    dg = _exp_sum((c3 * (s + 3.0), -24.0, -8.0 * (s + 1.0)), (s + 1.0, 0.0, -1.0))
    g = _exp_sum((c3, -12.0, -8.0 * (s + 1.0), -(s + 1.0) * (s + 2.0)), (s + 1.0, 0.0, -1.0, -2.0))
    t_lo, t_hi = math.log(math.ulp(0.0)), math.log(math.nextafter(math.inf, 0.0))
    t2 = math.log(24.0 / c4) / (s + 1.0) if c4 > 0.0 else t_lo
    cuts = [t_lo, min(max(t2, t_lo), t_hi), t_hi]
    for fn in (dg, g):
        roots = [_bisect(fn, a, b) for a, b in zip(cuts, cuts[1:])]
        cuts = [t_lo] + [a if t is None else t for a, t in zip(cuts, roots)] + [t_hi]
    return tuple(math.exp(t) for t in roots if t is not None)


def _exp_sum(coef, lam):
    """t -> the sum of the nonzero c_k e^(lam_k t), divided by the largest
    e^(lam_k t) among them: the sum's sign, with no term overflowing."""
    terms = [(c, k) for c, k in zip(coef, lam) if c != 0.0]

    def fn(t: float) -> float:
        top = max(k * t for _, k in terms)
        return sum(c * math.exp(k * t - top) for c, k in terms)
    return fn


def _bisect(fn, a: float, b: float) -> Optional[float]:
    """The root of fn in [a, b] when fn(a) and fn(b) differ in sign, else
    None; 64 halvings narrow any bracket of t down to the spacing of doubles."""
    negative = math.copysign(1.0, fn(a)) < 0.0
    if negative == (math.copysign(1.0, fn(b)) < 0.0):
        return None
    for _ in range(64):
        mid = 0.5 * (a + b)
        a, b = (mid, b) if (math.copysign(1.0, fn(mid)) < 0.0) == negative else (a, mid)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# divergence and linear functionals
# ---------------------------------------------------------------------------

def csiszar_divergence(gen: Generator, p: Distribution, q: Distribution) -> float:
    """sum q_i f(p_i / q_i); nonnegative for convex normalized f. A bound report's value."""
    _require_same_dim(p, q)
    return _checked(_VALUE, _sums, gen, p.weights, q.weights, pair=(p, q), slopes=False)[0]


def linearized_functionals(gen: Generator, p: Distribution,
                           q: Distribution) -> tuple[float, float]:
    """The pair (E, E*) of first-order functionals of the generator, as a bound report's."""
    _require_same_dim(p, q)
    return tuple(_checked(_SLOPES, _sums, gen, p.weights, q.weights, pair=(p, q), value=False))


# each public function's checked fields as (index, generator order), in the order it forms them
_VALUE, _SLOPES, _ENDPOINTS = ((0, 0),), ((0, 1), (1, 1)), ((0, 1), (1, 0))
_SMOOTHNESS = ((0, 2), (2, 1), (1, 3))  # delta, variation, f3_sup
_REPORT = ((0, 0), (1, 1), (2, 1), (3, 1), (4, 0), (5, 2), (7, 1), (6, 3))


def _checked(fields, kernel, gen: Generator, *args, **kwargs) -> list:
    """``kernel(gen, ...)``'s one-element arrays as floats (None and ratio bounds pass), formed
    with numpy's RuntimeWarnings ignored; the first of ``fields`` not finite names its order."""
    with _FILTERS, warnings.catch_warnings():  # an overflow is refused, not warned of
        warnings.simplefilter("ignore", RuntimeWarning)
        out = [float(v[0]) if np.ndim(v) else v for v in kernel(gen, *args, **kwargs)]
    for index, order in fields:
        if out[index] is not None and not math.isfinite(out[index]):
            raise _failed(gen, order)
    return out


def _sums(gen: Generator, a, b, total=None, pair=None, value=True, slopes=True) -> list:
    """[value, E, E*] over 1-D weights, one value per pair (one pair's in a one-element array),
    or the value or [E, E*] alone: the summands of ``gen.terms`` (or ``_evaluated``) summed as
    ``_staged`` sums a family's, stage one and bits alike, each by ``total`` where given."""
    terms, pairs = gen.terms or functools.partial(_evaluated, gen), total
    total = total or (lambda t: t.sum(axis=-1, keepdims=True))
    return list(_staged(lambda _, a, b, offsets: terms(a, b, offsets, pairs, value, slopes), None,
                        a, b, lambda summands: np.array([total(t) for t in summands]), pair))


def _evaluated(gen: Generator, a, b, _offsets, _pairs, value: bool, slopes: bool) -> list:
    """The generic summands, one order at a time: f at x = a/b, and f' at x and x*."""
    d, x = a - b, a / b
    return ([b * gen.evaluate(0, x)] if value else []) + (
        [d * gen.evaluate(1, x), d * gen.evaluate(1, (a + b) / (2.0 * b))] if slopes else [])


# ---------------------------------------------------------------------------
# endpoint and smoothness bounds over [r, R]
# ---------------------------------------------------------------------------

def endpoint_bounds(gen: Generator, rb: RatioBounds) -> tuple[float, float]:
    """(A, B): the quarter-spread slope bound and the chord evaluation."""
    return tuple(_checked(_ENDPOINTS, _endpoints, gen, *rb.ends()))


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
    return tuple(_checked(_SMOOTHNESS, _smoothness, gen, *rb.ends()))


# the generator's endpoint and smoothness quantities: 1-D arrays r, R -> one
# value per pair (and per order of a grid generator); ``at`` may share the
# generator's values at the ends between them (``_at_ends``)

def _at_ends(gen: Generator, r: np.ndarray, big_r: np.ndarray):
    """order -> (f at r, f at R, their difference), each order evaluated once,
    on the stacked (r, R)."""
    stacked, values = np.array([r, big_r]), {}

    def at(order: int):
        if order not in values:
            out = gen.evaluate(order, stacked)
            values[order] = out[..., 0, :], out[..., 1, :], out[..., 1, :] - out[..., 0, :]
        return values[order]
    return at


def _curvature_known(gen: Generator):
    """Whether f'' is known monotonic: a flag, or a column of one per order."""
    flags = gen.curvature_monotonicity
    if isinstance(flags, Curvature):
        return flags is not Curvature.UNKNOWN
    return np.array([flag is not Curvature.UNKNOWN for flag in flags])[:, None]


def _endpoints(gen: Generator, r: np.ndarray, big_r: np.ndarray, at=None):
    at = at or _at_ends(gen, r, big_r)
    a_bound = 0.25 * (big_r - r) * at(1)[2]
    f_r, f_big_r, _ = at(0)
    b_bound = ((big_r - 1.0) * f_r + (1.0 - r) * f_big_r) / (big_r - r)
    return a_bound, b_bound


def _smoothness(gen: Generator, r: np.ndarray, big_r: np.ndarray, at=None):
    """(delta, f3_sup, variation); delta and f3_sup may be None. A grid
    generator has delta on every row; ``_report`` uses the rows whose f''
    is known to be monotonic."""
    at = at or _at_ends(gen, r, big_r)
    delta = np.abs(at(2)[2]) if np.any(_curvature_known(gen)) else None
    variation, sup = at(1)[2], gen.third_sup_closed_form
    return delta, None if sup is None else sup(r, big_r), variation


def _report(gen: Generator, sums, ends, chi2, abs_chi3, tv):
    """The ``BoundReport`` fields from value to E_star_bound, one value per
    pair, elementwise from the pairs' ``_sums`` and (r, R) arrays (None for
    P = Q, which leaves the ratio-range fields None), so pairs of any dims
    share one call; a grid generator's fields lead with its grid axis."""
    value, e, e_star = sums
    if ends is None:
        return value, e, e_star, None, None, None, None, None, chi2, abs_chi3, tv, None, None
    at = _at_ends(gen, *ends)
    a_bound, b_bound = _endpoints(gen, *ends, at)
    delta, f3_sup, variation = _smoothness(gen, *ends, at)
    # each deviation bound is the min over the terms whose derivative data exists
    half, star = variation * tv, 0.5 * variation * tv
    if delta is not None:
        known, curved = _curvature_known(gen), delta * chi2 / 8.0
        half = np.where(known, np.minimum(half, curved), half)
        star = np.where(known, np.minimum(star, curved), star)
    if f3_sup is not None:
        half = np.minimum(half, f3_sup * abs_chi3 / 12.0)
        star = np.minimum(star, f3_sup * abs_chi3 / 24.0)
    return (value, e, e_star, a_bound, b_bound, delta, f3_sup, variation,
            chi2, abs_chi3, tv, half, star)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Every bound-engine quantity for one (generator, P, Q) triple.

    Bound fields are None when P = Q: the endpoint machinery requires
    r != R. ``half_E_bound`` bounds |value - linearized/2| and
    ``E_star_bound`` bounds |value - linearized_mid|. Inside a sweep the
    same fields are arrays, one value per pair, and ``ratio_bounds`` is None.
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
    """Assemble the divergence value and every applicable bound for a pair: its
    spread (``_spread``), one pass over its entries (``_sums``, with a family
    generator's stage one kept in the family memo), then the sweep's report
    kernel on the pair as a block of one."""
    _require_same_dim(p, q)
    return BoundReport(gen.name, *_checked(_REPORT, _report_fields, gen, p, q))


def _report_fields(gen: Generator, p: Distribution, q: Distribution) -> tuple:
    """``_report``'s fields on one pair, then its ratio bounds, refused before any f is formed."""
    chi2, abs_chi3, tv, r, big_r = _spread(p, q)
    rb = RatioBounds(float(r[0]), float(big_r[0]))
    sums = _sums(gen, p.weights, q.weights, pair=(p, q))
    return (*_report(gen, sums, None if rb.degenerate else (r, big_r), chi2, abs_chi3, tv), rb)


@functools.lru_cache(maxsize=1)
def _spread(p: Distribution, q: Distribution) -> tuple:
    """(chi^2, |chi|^3, TV, r, R) as one-element arrays from the sweep's kernels, shared
    by every report on the pair (none writes to them). The last pair's are kept, and
    with them its two ``Distribution``s, which hash by identity."""
    a, b = p.weights[None], q.weights[None]
    return (*(_abs_chi(m, a, b) for m in (2.0, 3.0, 1.0)), *_ratio_range(a / b))


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
    (r,), (big_r,) = rb.ends()
    xs = np.geomspace(r, big_r, _COMPARE_GRID_POINTS)
    denom = gen2.eval(2, xs)
    if np.any(denom <= 0.0):
        raise DomainError("NONCONVEX_REFERENCE",
                          f"reference generator {gen2.name!r} has f'' <= 0 on [r, R]")

    def ratio(x: float) -> float:
        # x stays inside the validated [r, R]; one-element arrays round as the grid
        at = np.array([x])
        return float((gen1.evaluate(2, at) / gen2.evaluate(2, at))[0])

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

def _refine(fn, xs: np.ndarray, values: np.ndarray, idx: int,
            minimize: bool) -> tuple[float, float]:
    """Golden-section polish inside the grid cells adjacent to the best grid
    point xs[idx], for fn on floats. The polished point replaces the grid
    point unless the grid point is strictly better."""
    a, b = xs[max(idx - 1, 0)], xs[min(idx + 1, xs.size - 1)]
    sign = 1.0 if minimize else -1.0
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = sign * fn(c), sign * fn(d)
    while b - a > _GOLDEN_TOL:
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

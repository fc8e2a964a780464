"""Registry and runner for the divergence inequality suite.

Every claim the library certifies is one row of a single declarative
table, :data:`REGISTRY`: an :class:`InequalityCase` with a stable id, a
severity, a parameter domain, and the comparisons it claims. ASSERT
cases must hold on every sampled pair (their failures are counted and
carry a replayable witness); DIAGNOSTIC cases are evaluated and reported
but never fail a sweep. The single DIAGNOSTIC entry is the lower
variation bound of the order-m absolute chi divergence, whose printed
coefficient fails a desk check (see
:func:`symdiv.divergences.vajda_variation_coefficients`).

An inequality ``L <= R`` passes when ``L <= R + tol * max(1, |R|)``: the
relative part guards the large symmetric chi-square cases, the absolute
floor guards comparisons between near-zero values.

One batched engine checks the table: a sweep samples the pairs of one
dimension straight into (N, n) weight arrays, validated once, evaluates
every row over all N at once and counts violations and skips with array
reductions. Inputs are checked at the boundary (``SweepConfig``, the
sampled stack); inside, a non-finite comparison is refused. A witness is
built only for each case's largest violation, the first in sequential
(pair, grid value, comparison) order, so results equal those of checking
the pairs one at a time. The single-pair checks are the same engine at
N = 1.

Sweeps are deterministic: the pair for (dim, index) is derived from
(seed, dim, index) alone, so sharding the work over any number of
workers would reproduce the same summary (assembly is an ordered merge).
The JSON summary is byte-stable apart from ``elapsed_ms``.
"""

from __future__ import annotations

import numbers
import re
import time
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .csiszar import (_deviation_bounds, _divergence, _endpoints, _linearized,
                      _smoothness, family_generator)
from .divergences import (MeasureKind, _abs_chi, _classic, _vajda_bounds,
                          _vajda_coefficients)
from .errors import DomainError, InputError
from .families import GeneratorFamilyKind, _v_values, _w_values, as_param
from .simplex import (Distribution, _check_simplex_rows, _floored, _require_same_dim,
                      sample_simplex)

DEFAULT_GRID = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
DEFAULT_TOL = 1e-10
VAJDA_ORDERS = (1.0, 2.0, 3.0)


class Severity(Enum):
    ASSERT = "ASSERT"
    DIAGNOSTIC = "DIAGNOSTIC"


@dataclass(frozen=True)
class InequalityCase:
    """One registered claim and how to check it over a stack of pairs.

    ``links(stack, point)`` gives the comparisons ``lhs <= rhs`` claimed
    at one point, each side an array with one value per pair. The points
    are the values of the ``param`` grid ("s", "t", or the chi orders
    "m"; one point when None) for which ``domain`` holds; with ``steps``
    they are the adjacent (lower, upper) pairs of the sorted grid, and a
    witness carries the upper value. ``spread`` cases need r < R and skip
    a pair with P = Q.
    """

    id: str
    description: str
    parameter_domain: str
    severity: Severity = Severity.ASSERT
    param: Optional[str] = None
    domain: Callable[[Any], bool] = lambda point: True
    links: Callable[["_Stack", Any], list] = field(kw_only=True)
    steps: bool = False
    spread: bool = False


def slack_violation(lhs, rhs, tol: float):
    """Signed violation of ``lhs <= rhs``; passes iff <= 0. Elementwise on arrays."""
    return lhs - rhs - tol * np.maximum(1.0, np.abs(rhs))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _stated(id_, description, domain="none", param=None, when=lambda point: True):
    """A case whose comparisons are the terms of its description, in order:
    ``a <= b <= c`` compares (a, b) then (b, c); ``a >= b`` compares (b, a)."""
    terms = description.split(" <= ")
    if len(terms) == 1:
        terms = description.split(" >= ")[::-1]
    return InequalityCase(id_, description, domain, param=param, domain=when,
                          links=lambda x, point: [(x.term(lo, point), x.term(hi, point))
                                                  for lo, hi in zip(terms, terms[1:])])


def _vajda_links(x, m, lhs):
    """lhs <= bound1 <= bound2, the order-m absolute chi bounds."""
    bound1, bound2 = _vajda_bounds(m, x.r, x.big_r)
    return [(lhs, bound1), (bound1, bound2)]


def _coefficient(x, m, upper):
    return _vajda_coefficients(m, x.r, x.big_r)[upper]


_DELTA = "delta term needs -1 <= s <= 2"
# the bound-engine claims for one generator family; {} is V (PHI) or W (PSI)
_ENGINE_CLAIMS = (
    ("{}_s <= E <= A", "all s",
     lambda r: [(r.value, r.linearized), (r.linearized, r.endpoint_A)]),
    ("{}_s <= B <= A", "all s",
     lambda r: [(r.value, r.endpoint_B), (r.endpoint_B, r.endpoint_A)]),
    ("|{}_s - E/2| <= min(delta chi2/8, f3 chi3/12, var V)", _DELTA,
     lambda r: [(np.abs(r.value - r.linearized / 2.0), r.half_E_bound)]),
    ("|{}_s - E*| <= min(delta chi2/8, f3 chi3/24, var V/2)", _DELTA,
     lambda r: [(np.abs(r.value - r.linearized_mid), r.E_star_bound)]),
)


def _engine_cases(kind, ids):
    tag = "V" if kind is GeneratorFamilyKind.PHI else "W"
    return tuple(InequalityCase(id_, description.format(tag), domain, param="s", spread=True,
                                links=lambda x, s, form=form: form(x.report(kind, s)))
                 for id_, (description, domain, form) in zip(ids, _ENGINE_CLAIMS))


CHAIN_CASES = (
    _stated("EQ77", "hel <= j/8 <= sym_chi2/16"),
    _stated("EQ104", "tri/4 <= js <= 4d <= ag <= sym_chi2/16"),
    _stated("EQ130", "js <= j/8 <= ag"),
    _stated("EQ137", "js <= hel <= ag"),
    _stated("EQ138", "tri/4 <= js <= hel <= j/8 <= ag <= sym_chi2/16"),
    _stated("EQ139", "tri/4 <= js <= hel <= j/8 <= ag <= j/4"),
    _stated("EQ140", "tri/4 <= hel <= tri/2"),
    _stated("EQ141", "tri/4 <= js <= hel <= tri/2"),
    _stated("EQ172", "hel/4 <= d <= hel/2"),
    _stated("EQ182", "4d <= j/8"),
    _stated("EQ183", "tri/4 <= js <= hel <= 4d <= j/8 <= ag <= sym_chi2/16"),
)

PARAMETRIC_CASES = (
    _stated("EQ129_UPPER", "W_s <= j/8", "-2 <= s <= 0", "s", lambda s: -2.0 <= s <= 0.0),
    _stated("EQ129_LOWER", "W_s >= j/8", "s >= 1", "s", lambda s: s >= 1.0),
    _stated("EQ136_UPPER", "W_s <= hel", "-2 <= s <= 0", "s", lambda s: -2.0 <= s <= 0.0),
    _stated("EQ136_LOWER", "W_s >= hel", "s >= 1/2", "s", lambda s: s >= 0.5),
    _stated("EQ142_UPPER", "W_s <= sym_chi2/16", "-1 <= s <= 2", "s",
            lambda s: -1.0 <= s <= 2.0),
    _stated("EQ142_LOWER", "W_s >= sym_chi2/16", "s >= 2", "s", lambda s: s >= 2.0),
    _stated("EQ143_UPPER", "V_t <= sym_chi2/2", "1/2 <= t <= 2", "t", lambda t: 0.5 <= t <= 2.0),
    _stated("EQ143_LOWER", "V_t >= sym_chi2/2", "t >= 2 or t <= -1", "t",
            lambda t: t >= 2.0 or t <= -1.0),
    _stated("EQ148", "tri <= V_t/2", "t >= 0 or t <= -1", "t", lambda t: t >= 0.0 or t <= -1.0),
    _stated("EQ153", "js <= V_t/8", "all t", "t"),
    _stated("EQ159_UPPER", "ag <= V_t/8", "t >= 2 or t <= -1", "t",
            lambda t: t >= 2.0 or t <= -1.0),
    _stated("EQ159_LOWER", "ag >= V_t/8", "0 <= t <= 1", "t", lambda t: 0.0 <= t <= 1.0),
    _stated("EQ165_UPPER", "W_s <= V_s/8", "s >= 2 or s <= -1", "s",
            lambda s: s >= 2.0 or s <= -1.0),
    _stated("EQ165_LOWER", "W_s >= V_s/8", "1/2 <= s <= 1", "s", lambda s: 0.5 <= s <= 1.0),
    _stated("EQ170", "V_s >= 4 W_s", "all s", "s"),
    _stated("EQ171", "V_s/8 <= W_s <= V_s/4", "1/2 <= s <= 1", "s", lambda s: 0.5 <= s <= 1.0),
    InequalityCase("PROP42_MONO", "V_s nonincreasing for s <= 1/2, nondecreasing for s >= 1/2",
                   "adjacent grid points on one side of 1/2", param="s", steps=True,
                   domain=lambda st: st[1] <= 0.5 or st[0] >= 0.5,
                   links=lambda x, st: [(x.v(st[1]), x.v(st[0])) if st[1] <= 0.5
                                        else (x.v(st[0]), x.v(st[1]))]),
    InequalityCase("PROP44_MONO", "W_s nondecreasing", "adjacent grid points with s >= -1",
                   param="s", steps=True, domain=lambda st: st[0] >= -1.0,
                   links=lambda x, st: [(x.w(st[0]), x.w(st[1]))]),
)

BOUNDS_CASES = (
    InequalityCase("EQ32", "(R-1)(1-r) <= (R-r)^2/4", "none", spread=True, links=lambda x, _: [
        ((x.big_r - 1.0) * (1.0 - x.r), (x.big_r - x.r) ** 2 / 4.0)]),
    InequalityCase("EQ52", "abs_chi^m <= bound1 <= bound2", "m in {1,2,3}", param="m",
                   spread=True, links=lambda x, m: _vajda_links(x, m, x.chi(m))),
    InequalityCase("EQ53_UPPER", "abs_chi^m <= ((R^m-1)/(R-1)) V", "m in {1,2,3}", param="m",
                   spread=True, links=lambda x, m: [(x.chi(m), _coefficient(x, m, 1) * x.tv)]),
    InequalityCase("EQ53_LOWER",
                   "((1-r^m)/(1-r)) V <= abs_chi^m (printed form fails a desk check)",
                   "m in {1,2,3}", Severity.DIAGNOSTIC, param="m", spread=True,
                   links=lambda x, m: [(_coefficient(x, m, 0) * x.tv, x.chi(m))]),
    InequalityCase("EQ54", "chi2 <= (R-1)(1-r) <= (R-r)^2/4", "none", spread=True,
                   links=lambda x, _: _vajda_links(x, 2.0, x.chi(2.0))),
    InequalityCase("EQ55", "abs_chi3 <= order-3 ratio bound <= (R-r)^3/8", "none",
                   spread=True, links=lambda x, _: _vajda_links(x, 3.0, x.chi(3.0))),
    InequalityCase("EQ56", "V <= 2(R-1)(1-r)/(R-r) <= (R-r)/2", "none", spread=True,
                   links=lambda x, _: _vajda_links(x, 1.0, x.tv)),
) + _engine_cases(GeneratorFamilyKind.PHI, ("EQ78", "EQ79", "EQ80", "EQ81")) \
  + _engine_cases(GeneratorFamilyKind.PSI, ("EQ105", "EQ106", "EQ107", "EQ108"))

REGISTRY: tuple[InequalityCase, ...] = CHAIN_CASES + PARAMETRIC_CASES + BOUNDS_CASES
# check_chain reports these chain quantities
_CHAIN_TERMS = ("tri/4", "tri/2", "js", "hel", "hel/4", "hel/2", "d", "4d", "j/8", "j/4",
                "ag", "sym_chi2/16")


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class CaseResult:
    """Aggregated outcome of one registry case over any number of pairs."""

    case_id: str
    severity: Severity
    evaluations: int = 0
    violations: int = 0
    skipped: int = 0
    max_violation: Optional[float] = None
    witness: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def record(self, violations: np.ndarray, witness_at: Callable[..., dict]) -> None:
        """Count a block of signed violations, taken in the order of its
        flattened index. Only a new maximum builds its witness, through
        ``witness_at(*index)``; the first of equal maxima wins."""
        if violations.size == 0:
            return
        self.evaluations += violations.size
        self.violations += int(np.count_nonzero(violations > 0.0))
        top = int(np.argmax(violations))
        worst = float(violations.flat[top])
        if self.max_violation is None or worst > self.max_violation:
            self.max_violation = worst
            self.witness = witness_at(*np.unravel_index(top, violations.shape))

    def merge(self, other: "CaseResult") -> None:
        self.evaluations += other.evaluations
        self.violations += other.violations
        self.skipped += other.skipped
        if other.max_violation is not None and (
                self.max_violation is None or other.max_violation > self.max_violation):
            self.max_violation = other.max_violation
            self.witness = other.witness

    def to_json_dict(self) -> dict:
        out = {
            "id": self.case_id,
            "severity": self.severity.value,
            "pass": self.passed,
            "evaluations": self.evaluations,
            "violations": self.violations,
            "skipped": self.skipped,
            "max_violation": self.max_violation,
        }
        if self.witness is not None and (self.violations > 0
                                         or self.severity is Severity.DIAGNOSTIC):
            out["witness"] = self.witness
        return out


@dataclass
class ChainReport:
    """check_chain outcome: the evaluated chain quantities plus per-case results."""

    values: dict[str, float]
    cases: list[CaseResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.cases if c.severity is Severity.ASSERT)

    @property
    def chain_values(self) -> tuple[float, ...]:
        v = self.values
        return (v["tri/4"], v["js"], v["hel"], v["4d"], v["j/8"], v["ag"],
                v["sym_chi2/16"])


@dataclass(frozen=True)
class SweepConfig:
    dims: tuple[int, ...] = (2, 3, 5, 10)
    samples_per_dim: int = 250
    seed: int = 7
    s_grid: tuple[float, ...] = DEFAULT_GRID
    t_grid: tuple[float, ...] = DEFAULT_GRID
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.dims or any(int(d) < 2 for d in self.dims):
            raise InputError("BAD_CONFIG", f"dims must all be >= 2, got {self.dims}")
        if self.samples_per_dim < 1:
            raise InputError("BAD_CONFIG",
                             f"samples_per_dim must be >= 1, got {self.samples_per_dim}")
        if len(self.s_grid) == 0 or len(self.t_grid) == 0:
            raise InputError("EMPTY_GRID", "s and t grids must be nonempty")
        if not (self.tol > 0):
            raise InputError("BAD_CONFIG", f"tol must be > 0, got {self.tol}")
        # the pair sampler trusts these: a float dim would sample int(dim) rows
        whole = lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)
        if not all(map(whole, (*self.dims, self.samples_per_dim, self.seed))) or self.seed < 0:
            raise InputError("BAD_CONFIG", "dims, samples_per_dim and seed must be integers, "
                             f"seed >= 0; got {self.dims!r}, {self.samples_per_dim!r}, {self.seed!r}")

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "samples_per_dim": self.samples_per_dim,
            "seed": self.seed,
            "s_grid": list(self.s_grid),
            "t_grid": list(self.t_grid),
            "tol": self.tol,
        }


@dataclass
class SweepSummary:
    config: SweepConfig
    cases: list[CaseResult]
    samples: int
    seed: int
    elapsed_ms: int

    @property
    def assert_failures(self) -> int:
        return sum(1 for c in self.cases
                   if c.severity is Severity.ASSERT and not c.passed)

    @property
    def ok(self) -> bool:
        return self.assert_failures == 0

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "cases": [c.to_json_dict() for c in self.cases],
            "skipped_counts": {c.case_id: c.skipped for c in self.cases if c.skipped},
            "samples": self.samples,
            "seed": self.seed,
            "assert_failures": self.assert_failures,
            "elapsed_ms": self.elapsed_ms,
        }


# ---------------------------------------------------------------------------
# the batched engine
# ---------------------------------------------------------------------------

_MEASURES = {"tri": MeasureKind.TRIANGULAR, "hel": MeasureKind.HELLINGER, "j": MeasureKind.J,
             "d": MeasureKind.D_NEW, "js": MeasureKind.JS, "ag": MeasureKind.AG,
             "sym_chi2": MeasureKind.SYM_CHI2}
_TERM = re.compile(r"(?:(\d+) ?)?([A-Za-z]\w*)(?:/(\d+))?")


class _Stack:
    """N pairs of one dimension as (N, n) weight arrays ``a`` (P) and ``b``
    (Q). Every quantity is an array with one value per pair; measures and
    reports are computed once over all N, on first use. There is no
    per-pair path: a single pair is a stack of one and rounds alike."""

    def __init__(self, a: np.ndarray, b: np.ndarray, gens: dict):
        self.a, self.b, self.gens = a, b, gens
        self.size = a.shape[0]
        self._memo: dict = {}

    def _memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def classic(self, kind: MeasureKind) -> np.ndarray:
        return self._memoized(kind, lambda: _classic(kind, self.a, self.b))

    def v(self, s) -> np.ndarray:
        return self._memoized(("V", s), lambda: _v_values(as_param(s), self.a, self.b))

    def w(self, s) -> np.ndarray:
        return self._memoized(("W", s), lambda: _w_values(as_param(s), self.a, self.b))

    def term(self, text: str, point) -> np.ndarray:
        """A printed term at a grid point: a classic measure ("hel", "4d",
        "sym_chi2/16") or V_s, V_t, W_s, with an optional factor or divisor."""
        def compute():
            factor, name, divisor = _TERM.fullmatch(text).groups()
            value = (self.v(point) if name in ("V_s", "V_t") else self.w(point)
                     if name == "W_s" else self.classic(_MEASURES[name]))
            if factor:
                value = float(factor) * value
            return value / float(divisor) if divisor else value
        return self._memoized((text, point), compute)

    def chi(self, m: float) -> np.ndarray:
        return self._memoized(("chi", m), lambda: _abs_chi(m, self.a, self.b))

    @property
    def tv(self) -> np.ndarray:
        return self.classic(MeasureKind.TOTAL_VARIATION)

    # ratio-range quantities, defined on the spread stack -------------------

    @property
    def r(self) -> np.ndarray:
        return self._memoized("r", lambda: np.minimum((self.a / self.b).min(axis=-1), 1.0))

    @property
    def big_r(self) -> np.ndarray:
        return self._memoized("R", lambda: np.maximum((self.a / self.b).max(axis=-1), 1.0))

    @property
    def spread(self) -> "_Stack":
        """The pairs with r < R, that is P != Q."""
        def compute():
            keep = self.r < self.big_r
            return None if keep.all() else _Stack(self.a[keep], self.b[keep], self.gens)
        # None stands for self: a stack that held itself would live until
        # the cyclic garbage collector ran
        sub = self._memoized("spread", compute)
        return self if sub is None else sub

    def report(self, kind: GeneratorFamilyKind, s) -> SimpleNamespace:
        """The bound_report fields of the family generator at s."""
        def compute():
            gen = self.gens[(kind, s)]
            e, e_star = _linearized(gen, self.a, self.b)
            endpoint_a, endpoint_b = _endpoints(gen, self.r, self.big_r)
            delta, f3_sup, variation = _smoothness(gen, self.r, self.big_r)
            half, star = _deviation_bounds(delta, f3_sup, variation, self.classic(
                MeasureKind.CHI2), self.chi(3.0), self.tv)
            return SimpleNamespace(value=_divergence(gen, self.a, self.b), linearized=e,
                                   linearized_mid=e_star, endpoint_A=endpoint_a,
                                   endpoint_B=endpoint_b, half_E_bound=half, E_star_bound=star)
        return self._memoized((kind, s), compute)


def _check(cases: Sequence[InequalityCase], stack: _Stack, s_grid: Sequence[float],
           t_grid: Sequence[float], tol: float) -> list[CaseResult]:
    """Evaluate each case over every pair of the stack at once."""
    grids = {None: (None,), "s": tuple(s_grid), "t": tuple(t_grid), "m": VAJDA_ORDERS}
    results = []
    for case in cases:
        pairs = stack.spread if case.spread else stack
        points = [(value, value) for value in grids[case.param]]
        if case.steps:
            ordered = sorted(grids[case.param])
            points = [((lo, hi), hi) for lo, hi in zip(ordered, ordered[1:])]
        kept = [(point, label) for point, label in points if case.domain(point)]
        result = CaseResult(case.id, case.severity, skipped=stack.size - pairs.size
                            + pairs.size * (len(points) - len(kept)))
        results.append(result)
        links = [(lhs, rhs, label) for point, label in kept
                 for lhs, rhs in case.links(pairs, point)] if pairs.size else []
        if links:
            lhs, rhs, labels = zip(*links)
            # one row per pair, one column per comparison in sequential order
            violations = slack_violation(np.array(lhs).T, np.array(rhs).T, tol)
            if not np.isfinite(violations).all():  # a NaN would count as a pass
                col = np.nonzero(~np.isfinite(violations))[1][0]
                where = "" if case.param is None else f" at {case.param} = {labels[col]!r}"
                raise DomainError("NON_FINITE_RESULT",
                                  f"case {case.id} compared a non-finite value{where}")
            result.record(violations, lambda lane, col, pairs=pairs, case=case, labels=labels:
                          _witness(pairs, lane, case.param, labels[col]))
    return results


def _witness(stack: _Stack, lane: int, param: Optional[str], value) -> dict:
    out = {"p": stack.a[lane].tolist(), "q": stack.b[lane].tolist(), "s": None, "t": None}
    if param is not None:
        out[param] = float(value)
    return out


def _stack(pairs: Sequence[tuple[Distribution, Distribution]], gens: dict) -> _Stack:
    return _Stack(np.stack([p.weights for p, _ in pairs]),
                  np.stack([q.weights for _, q in pairs]), gens)


def _generators(s_grid: Sequence[float]) -> dict:
    return {(family, s): family_generator(family, s)
            for family in GeneratorFamilyKind for s in s_grid}


# ---------------------------------------------------------------------------
# public checks
# ---------------------------------------------------------------------------

def check_chain(p: Distribution, q: Distribution, tol: float = DEFAULT_TOL) -> ChainReport:
    """Evaluate the seven-measure chain (and its published sub-chains) once."""
    _require_same_dim(p, q)
    stack = _stack([(p, q)], {})
    cases = _check(CHAIN_CASES, stack, (), (), tol)
    return ChainReport({key: float(stack.term(key, None)[0]) for key in _CHAIN_TERMS}, cases)


def check_parametric(p: Distribution, q: Distribution,
                     s_grid: Sequence[float] = DEFAULT_GRID,
                     t_grid: Sequence[float] = DEFAULT_GRID,
                     tol: float = DEFAULT_TOL) -> list[CaseResult]:
    """Check every grid-parameterized claim on one pair; a sweep fragment."""
    _require_same_dim(p, q)
    if len(s_grid) == 0 or len(t_grid) == 0:
        raise InputError("EMPTY_GRID", "s and t grids must be nonempty")
    return _check(PARAMETRIC_CASES, _stack([(p, q)], {}), s_grid, t_grid, tol)


def check_bounds_suite(p: Distribution, q: Distribution,
                       s_grid: Sequence[float] = DEFAULT_GRID,
                       tol: float = DEFAULT_TOL) -> list[CaseResult]:
    """Check the ratio-range and bound-engine claims on one pair."""
    _require_same_dim(p, q)
    if len(s_grid) == 0:
        raise InputError("EMPTY_GRID", "s grid must be nonempty")
    return _check(BOUNDS_CASES, _stack([(p, q)], _generators(s_grid)), s_grid, (), tol)


def pair_for(seed: int, dim: int, index: int) -> tuple[Distribution, Distribution]:
    """The deterministic sampled pair for one (seed, dim, index) shard."""
    return tuple(sample_simplex(dim, _draw_seed(seed, dim, index, k)) for k in (0, 1))


def _draw_seed(seed: int, dim: int, index: int, k: int) -> int:
    return int(np.random.SeedSequence((seed, dim, index, k)).generate_state(1)[0])


def _sample_stack(seed: int, dim: int, count: int, gens: dict) -> _Stack:
    """``pair_for(seed, dim, i)`` for i < count as one stack, bit for bit: the
    same draws, written into one array, floored and renormalized row-wise
    and validated once."""
    draws = np.empty((2, count, dim))
    for index in range(count):
        for k in (0, 1):
            rng = np.random.default_rng(_draw_seed(seed, dim, index, k))
            rng.standard_exponential(out=draws[k, index])
    w = _floored(draws)
    _check_simplex_rows(w)
    return _Stack(w[0], w[1], gens)


def run_sweep(config: SweepConfig = SweepConfig()) -> SweepSummary:
    """Run the whole registry over deterministic random pairs, one batch per
    dim: each dim's ``pair_for`` pairs, sampled straight into one stack."""
    start = time.perf_counter()
    gens = _generators(config.s_grid)
    results = [CaseResult(c.id, c.severity) for c in REGISTRY]
    for dim in config.dims:
        stack = _sample_stack(config.seed, dim, config.samples_per_dim, gens)
        batch = _check(REGISTRY, stack, config.s_grid, config.t_grid, config.tol)
        for total, part in zip(results, batch):
            total.merge(part)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))
    samples = len(config.dims) * config.samples_per_dim
    return SweepSummary(config=config, cases=results,
                        samples=samples, seed=config.seed, elapsed_ms=elapsed_ms)

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

One batched engine checks the table in one pass over all the sweep's pairs,
sampled straight into one (N, n) block of weights per dim and validated once.
Their entries lie on one flat axis: each elementwise pass runs once over it,
each sum over a pair's entries per dim segment. The family generators over the
s grid and each case's kept points are kept per grid. A PHI or PSI report's value,
V_s or W_s, is the family sums' row, with its bits: each is summed once. Consecutive
cases' comparisons form blocks of (comparisons x pairs), each reduced once per column.
Inputs are checked at the boundary (``SweepConfig``, the sampled blocks).
Inside, a non-finite comparison is refused and a witness is built for each
case's largest violation, the first in the order of checking the pairs one at a
time (dim, case, pair, grid value, comparison), so results equal that.

Sweeps are deterministic: pair i of (seed, dim) is the 2*dim uniforms from
word 2*dim*i on of one counter-based Philox stream keyed on (seed, dim), as
exponentials floored like ``sample_simplex``'s; :func:`pair_for` jumps to
it. Seeds yield other pairs than under the old per-draw seeding. The JSON
summary is byte-stable apart from ``elapsed_ms``.
"""

from __future__ import annotations

import functools
import numbers
import re
import time
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .csiszar import BoundReport, _family_generator, _report, _sums
from .divergences import MeasureKind, _abs_chi, _classic, _vajda_bounds, _vajda_coefficients
from .errors import _FILTERS, DomainError, InputError
from .families import _BLOCK, GeneratorFamilyKind, _column, _v_values, _w_values, as_param
from .simplex import (Distribution, _check_sampling, _check_simplex_rows, _floored,
                      _ratio_range, _real, _require_same_dim)

DEFAULT_GRID = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
DEFAULT_TOL = 1e-10
VAJDA_ORDERS = (1.0, 2.0, 3.0)


class Severity(Enum):
    ASSERT = "ASSERT"
    DIAGNOSTIC = "DIAGNOSTIC"


@dataclass(frozen=True, eq=False)  # hashed by identity: cheap as a cache key
class InequalityCase:
    """One registered claim and how to check it over a stack of pairs.

    ``links(stack, points)`` gives the comparisons ``lhs <= rhs`` claimed
    at every point at once, each side an array that broadcasts to one row
    per point and one column per pair. The points are the values of the
    ``param`` grid ("s", "t", or the chi orders "m"; one point, None, when
    None) for which ``domain`` holds, as a tuple; with ``steps`` they are
    the adjacent (lower, upper) pairs of the sorted grid, and a witness
    carries the upper value. ``spread`` cases need r < R and skip a pair
    with P = Q.
    """

    id: str
    description: str
    parameter_domain: str
    severity: Severity = Severity.ASSERT
    param: Optional[str] = None
    domain: Callable[[Any], bool] = lambda point: True
    links: Callable[["_Stack", tuple], list] = field(kw_only=True)
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
                          links=lambda x, points: [(x.term(lo, points), x.term(hi, points))
                                                   for lo, hi in zip(terms, terms[1:])])


def _vajda_links(x, m):
    """|chi|^m <= bound1 <= bound2 at one order m, or a tuple of them, one row each."""
    bound1, bound2 = x.vajda(_vajda_bounds, m)
    return [(x.chi(m), bound1), (bound1, bound2)]


def _variation(x, m):
    """(c_lo V, c_hi V), the order-m variation bounds on |chi|^m, as two rows."""
    return x.vajda(_vajda_coefficients, m) * x.chi(1.0)


def _monotone_links(x, steps):
    """V_s toward s = 1/2 along each step (lower, upper) of the s grid:
    nonincreasing for s <= 1/2, nondecreasing for s >= 1/2."""
    lower, upper = (x.family("V", ends) for ends in zip(*steps))
    falling = _column([hi <= 0.5 for _, hi in steps], 1)
    return [(np.where(falling, upper, lower), np.where(falling, lower, upper))]


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
                   links=_monotone_links),
    InequalityCase("PROP44_MONO", "W_s nondecreasing", "adjacent grid points with s >= -1",
                   param="s", steps=True, domain=lambda st: st[0] >= -1.0,
                   links=lambda x, steps: [tuple(x.family("W", ends) for ends in zip(*steps))]),
)

BOUNDS_CASES = (
    InequalityCase("EQ32", "(R-1)(1-r) <= (R-r)^2/4", "none", spread=True, links=lambda x, _: [
        ((x.big_r - 1.0) * (1.0 - x.r), (x.big_r - x.r) ** 2 / 4.0)]),
    InequalityCase("EQ52", "abs_chi^m <= bound1 <= bound2", "m in {1,2,3}", param="m",
                   spread=True, links=_vajda_links),
    InequalityCase("EQ53_UPPER", "abs_chi^m <= ((R^m-1)/(R-1)) V", "m in {1,2,3}", param="m",
                   spread=True, links=lambda x, m: [(x.chi(m), _variation(x, m)[1])]),
    InequalityCase("EQ53_LOWER",
                   "((1-r^m)/(1-r)) V <= abs_chi^m (printed form fails a desk check)",
                   "m in {1,2,3}", Severity.DIAGNOSTIC, param="m", spread=True,
                   links=lambda x, m: [(_variation(x, m)[0], x.chi(m))]),
    InequalityCase("EQ54", "chi2 <= (R-1)(1-r) <= (R-r)^2/4", "none", spread=True,
                   links=lambda x, _: _vajda_links(x, 2.0)),
    InequalityCase("EQ55", "abs_chi3 <= order-3 ratio bound <= (R-r)^3/8", "none",
                   spread=True, links=lambda x, _: _vajda_links(x, 3.0)),
    InequalityCase("EQ56", "V <= 2(R-1)(1-r)/(R-r) <= (R-r)/2", "none", spread=True,
                   links=lambda x, _: _vajda_links(x, 1.0)),
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
    """Aggregated outcome of one registry case over any number of pairs, as if
    checked one at a time; ``_check`` fills it from its comparison blocks."""

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
        if self.witness is not None:
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
        try:  # what int() or < refuses is not a number: malformed as well
            small = not self.dims or any(int(d) < 2 for d in self.dims)
            few = self.samples_per_dim < 1
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError("BAD_CONFIG", "dims and samples_per_dim must be integers, got "
                             f"{self.dims!r}, {self.samples_per_dim!r}") from exc
        if small:
            raise InputError("BAD_CONFIG", f"dims must all be >= 2, got {self.dims}")
        if few:
            raise InputError("BAD_CONFIG",
                             f"samples_per_dim must be >= 1, got {self.samples_per_dim}")
        _check_sized((self.s_grid, self.t_grid), "s and t grids")
        _check_tol(self.tol)
        for dim in self.dims:  # the pair sampler trusts these
            _check_sampling(dim, self.samples_per_dim, self.seed)
        # numpy integers pass as whole; the JSON summary needs plain ints
        object.__setattr__(self, "dims", tuple(map(int, self.dims)))
        object.__setattr__(self, "samples_per_dim", int(self.samples_per_dim))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "s_grid", _grid(self.s_grid))
        object.__setattr__(self, "t_grid", _grid(self.t_grid))

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "samples_per_dim": self.samples_per_dim,
            "seed": self.seed,
            "s_grid": list(self.s_grid),
            "t_grid": list(self.t_grid),
            "tol": self.tol,
        }


def _check_tol(tol) -> None:
    if not (_real(tol) and 0.0 < tol < np.inf):
        raise InputError("BAD_CONFIG", f"tol must be finite and > 0, got {tol}")


def _check_sized(grids, what: str) -> None:
    """Each grid in turn is a tuple, list or 1-D array (BAD_CONFIG) with an
    entry (EMPTY_GRID)."""
    for g in grids:
        if not (isinstance(g, (tuple, list)) or isinstance(g, np.ndarray) and g.ndim == 1):
            raise InputError("BAD_CONFIG", f"a grid must be a sequence of real numbers, got {g!r}")
        if len(g) == 0:
            raise InputError("EMPTY_GRID", f"{what} must be nonempty")


def _grid(values) -> tuple:
    """A sized grid's entries, refused unless real numbers and not bools
    (BAD_CONFIG), then unless finite (PARAMETER_OUT_OF_RANGE). Plain ints and
    floats are kept as given; any other number, a numpy scalar say, becomes
    the equal Python int or float, which the JSON summary can print."""
    if not all(map(_real, values)):
        raise InputError("BAD_CONFIG", f"grid entries must be real numbers, got {values!r}")
    grid = tuple(v if type(v) in (int, float) else int(v) if isinstance(v, numbers.Integral)
                 else float(v) for v in values)
    for value in grid:
        as_param(value)
    return grid


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


def _grids(s_grid: Sequence, t_grid: Sequence, kinds=()) -> dict:
    """A check's points for each ``param`` (None, "s", "t", "m"), and for each
    of ``kinds`` its family generator over the whole s grid, kept per grid."""
    grids = {None: (None,), "s": tuple(s_grid), "t": tuple(t_grid), "m": VAJDA_ORDERS}
    return grids | {kind: _grid_generator(kind, _key(grids["s"])) for kind in kinds}


def _key(grid: tuple) -> tuple:
    """``_grid``'s ints and floats by type and bits, as printed: 1 is not 1.0, -0.0 not 0.0."""
    return tuple(v.hex() if type(v) is float else v for v in grid)


def _values(key: tuple) -> tuple:
    return tuple(float.fromhex(v) if isinstance(v, str) else v for v in key)


@functools.lru_cache(maxsize=32)  # a refusal raises, so it is not kept
def _grid_generator(kind: GeneratorFamilyKind, key: tuple):
    return _family_generator(kind, np.array(_values(key), float))


@functools.lru_cache(maxsize=32)
def _plan(cases: tuple, s_key: tuple, t_key: tuple) -> tuple:
    """Per case: its point count, kept points and their labels (a step's upper value)."""
    grids, plan = _grids(_values(s_key), _values(t_key)), []
    for case in cases:
        points = grids[case.param]
        if case.steps:
            points = tuple(zip(sorted(points), sorted(points)[1:]))
        kept = tuple(filter(case.domain, points))
        plan.append((len(points), kept, tuple(hi for _, hi in kept) if case.steps else kept))
    return tuple(plan)


class _Stack:
    """Pairs as blocks (a, b), one (N_k, n_k) weight array each for P and Q per
    dim, with the check's ``grids``. Each quantity is computed once, on first
    use, with one value per pair and one row per grid point where it depends
    on one: elementwise over each run of the pairs' entries (``_runs``), then
    per pair and joined. A single pair is a block of one."""

    def __init__(self, blocks: list, grids: dict):
        self.blocks, self.grids = blocks, grids
        self.starts = np.cumsum([0] + [len(a) for a, _ in blocks])  # each block's, then the end
        self.size = int(self.starts[-1])
        self.runs = _runs(blocks)
        self._memo: dict = {}

    def _memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _summed(self, key, compute: Callable) -> np.ndarray:
        """``compute(a, b, total)`` on each run (``_runs``), joined along the last (pair) axis."""
        return self._memoized(key, lambda: np.concatenate(
            [compute(*run) for run in self.runs], axis=-1))

    def block_of(self, lane: int) -> int:
        return int(np.searchsorted(self.starts, lane, side="right")) - 1

    def classic(self, kind: MeasureKind) -> np.ndarray:
        return self._summed(kind, lambda a, b, total: _classic(kind, a, b, total))

    def family(self, name: str, points) -> np.ndarray:
        """V ("V") or W ("W") at each point, one row per point, taken from
        their values over the distinct s grid values (V also t)."""
        grid = tuple(dict.fromkeys(self.grids["s"] + (self.grids["t"] if name == "V" else ())))
        values = self._summed(name, lambda a, b, total: (_v_values if name == "V" else _w_values)(
            _column(grid, a.ndim), a, b, total))
        return values[[grid.index(point) for point in points]]

    def term(self, text: str, points) -> np.ndarray:
        """A printed term: a classic measure ("hel", "4d", "sym_chi2/16"),
        one value per pair, or V_s, V_t, W_s, one row per point; with an
        optional factor or divisor."""
        def compute():
            factor, name, divisor = _TERM.fullmatch(text).groups()
            value = (self.family(name[0], points) if name in ("V_s", "V_t", "W_s")
                     else self.classic(_MEASURES[name]))
            if factor:
                value = float(factor) * value
            return value / float(divisor) if divisor else value
        return self._memoized((text, points), compute)

    def chi(self, m) -> np.ndarray:
        """|chi|^m (V at m = 1, chi^2 at 2) for one order m, or a tuple m's rows stacked."""
        if isinstance(m, tuple):
            return np.stack([self.chi(v) for v in m])
        return self._summed(("chi", m), lambda a, b, total: _abs_chi(m, a, b, total))

    # ratio-range quantities, defined on the spread stack -------------------

    def vajda(self, kernel, m) -> np.ndarray:
        """A Vajda ``kernel(m, r, R)`` as two rows; for a tuple m, each its orders' rows."""
        if isinstance(m, tuple):
            return np.stack([self.vajda(kernel, v) for v in m], axis=1)
        return self._memoized((kernel, m), lambda: np.array(kernel(m, *self.ends)))

    @property
    def ends(self) -> np.ndarray:
        """(r, R), the ratio range of each pair, as two rows."""
        return self._summed("ends", lambda a, b, total: total(a / b, _ratio_range))

    r = property(lambda self: self.ends[0])
    big_r = property(lambda self: self.ends[1])

    @property
    def spread(self) -> "_Stack":
        """The pairs with r < R, that is P != Q, in this stack's blocks."""
        def compute():
            keep = self.r < self.big_r
            return None if keep.all() else _Stack(
                [(a[k], b[k]) for (a, b), k in zip(self.blocks, np.split(keep, self.starts[1:-1]))],
                self.grids)
        # None stands for self: a stack that held itself would live until
        # the cyclic garbage collector ran
        sub = self._memoized("spread", compute)
        return self if sub is None else sub

    def report(self, kind: GeneratorFamilyKind, points) -> BoundReport:
        """The bound_report fields of the family generator at each s point, one row per
        point, taken from one report over the whole s grid, whose value (V_s or W_s) is
        the family's row (``family``), with its bits: ``_sums`` forms E and E* alone."""
        gen = self.grids[kind]
        fields = self._memoized(kind, lambda: _report(
            gen, (self.family("V" if kind is GeneratorFamilyKind.PHI else "W", self.grids["s"]),
                  *self._summed(("slopes", kind), lambda a, b, total: np.array(
                      _sums(gen, a, b, total=total, value=False)))),
            self.ends, *self.chi((2.0, 3.0, 1.0))))
        rows = [self.grids["s"].index(point) for point in points]
        return self._memoized((kind, points), lambda: BoundReport(
            None, *(v[rows] if np.ndim(v) == 2 else v for v in fields), ratio_bounds=None))


def _runs(blocks: list) -> list:
    """The blocks' entries on one flat axis, dim after dim and pair after pair, cut
    at pairs into runs (a, b, total) of at most ``_BLOCK`` entries, or of one longer
    pair, which ``_blocked`` cuts. ``total`` takes each pair's sum on the run's segment
    (start, stop, (pairs, -1), slice of pairs) of each dim, as a block of that dim would."""
    flat = [np.concatenate([w.reshape(-1) for w in side]) for side in zip(*blocks)]
    runs, room, offset = [], 0, 0  # room: the entries left in the last run, done: its pairs
    for a, _ in blocks:
        left, n = a.shape  # the block's pairs left to place
        while left:
            if room < n:
                runs.append((offset, []))
                room, done = max(_BLOCK, n), 0
            take, at = min(left, room // n), offset - runs[-1][0]
            runs[-1][1].append((at, at + take * n, (take, -1), slice(done, done + take)))
            room, offset, left, done = room - take * n, offset + take * n, left - take, done + take
    return [(*(w[start:start + run[-1][1]] for w in flat),
             functools.partial(_per_pair, segments=run, pairs=run[-1][3].stop))
            for start, run in runs]


def _per_pair(x: np.ndarray, fn=None, *, segments, pairs: int) -> np.ndarray:
    """fn of x's entries as (..., pairs, entries) on each segment, joined, or by default each
    pair's sum, each segment reduced into its slice of one array."""
    if fn is not None:
        return np.concatenate([fn(x[..., i:j].reshape(x.shape[:-1] + shape))
                               for i, j, shape, _ in segments], axis=-1)
    out = np.empty(x.shape[:-1] + (pairs,))
    for i, j, shape, at in segments:
        np.add.reduce(x[..., i:j].reshape(x.shape[:-1] + shape), axis=-1, out=out[..., at])
    return out


def _check(cases: tuple[InequalityCase, ...], stack: _Stack, tol: float) -> list[CaseResult]:
    """Evaluate every case over every pair and kept point at once, consecutive
    cases on a pair stack (the stack, its spread sub-stack) in one block of at
    most ``_BLOCK`` (comparison, pair) cells, a larger case alone: few
    temporaries live, whatever the sweep's size; each case's points come from
    ``_plan``. A block is reduced once per column (its largest violation, the
    first lane holding it, its positives); each case reads its columns, the
    first lane, then column, of equal maxima winning. The first non-finite
    comparison in (block, case, pair, point, comparison) order is refused."""
    results, refusals, chunks = [], [], {}  # pair stack -> its cases' comparisons to make

    def compare(pairs: _Stack, chunk: list) -> None:
        lhs, rhs = np.empty((2, chunk[-1][1], pairs.size))
        for start, end, _, _, links, _ in chunk:
            for k, (lo, hi) in enumerate(links):  # the rows (point, k) of the case
                lhs[start + k:end:len(links)], rhs[start + k:end:len(links)] = lo, hi
        violations = slack_violation(lhs, rhs, tol).T  # a column per (case, point, comparison)
        finite = np.isfinite(violations)
        whole = finite.all()  # a NaN would count as a pass
        lanes = violations.argmax(axis=0)
        tops = violations[lanes, np.arange(lanes.size)].tolist()
        positives, lanes = np.count_nonzero(violations > 0.0, axis=0).tolist(), lanes.tolist()
        for start, end, position, case, links, labels in chunk:
            if not (whole or finite[:, start:end].all()):  # (lane, point) of the first
                lane, at = divmod(int(np.argmin(finite[:, start:end])) // len(links), len(labels))
                where = "" if case.param is None else f" at {case.param} = {labels[at]!r}"
                refusals.append((pairs.block_of(lane), position,
                                 f"case {case.id} compared a non-finite value{where}"))
                continue
            result, column, first = results[position], tops[start:end], lanes[start:end]
            worst = max(column)
            col = column.index(worst) if column.count(worst) == 1 else min(
                (first[c], c) for c, v in enumerate(column) if v == worst)[1]
            result.evaluations = pairs.size * (end - start)
            result.violations, result.max_violation = sum(positives[start:end]), column[col]
            if column[col] > 0.0 or case.severity is Severity.DIAGNOSTIC:
                result.witness = _witness(pairs, first[col], case.param, labels[col // len(links)])
        chunk.clear()

    plan = _plan(cases, _key(stack.grids["s"]), _key(stack.grids["t"]))
    with _FILTERS, warnings.catch_warnings():  # an overflow is refused, not warned of
        warnings.simplefilter("ignore", RuntimeWarning)
        for position, (case, (count, points, labels)) in enumerate(zip(cases, plan)):
            pairs = stack.spread if case.spread else stack
            results.append(CaseResult(case.id, case.severity, skipped=stack.size - pairs.size
                                      + pairs.size * (count - len(points))))
            if points and pairs.size:
                links = case.links(pairs, points)
                rows, chunk = len(points) * len(links), chunks.setdefault(pairs, [])
                start = chunk[-1][1] if chunk else 0  # chunk: (its rows, case) in the block
                if chunk and (start + rows) * pairs.size > _BLOCK:
                    compare(pairs, chunk)
                    start = 0
                chunk.append((start, start + rows, position, case, links, labels))
        for pairs, chunk in chunks.items():
            if chunk:
                compare(pairs, chunk)
    if refusals:
        raise DomainError("NON_FINITE_RESULT", min(refusals)[2])
    return results


def _witness(stack: _Stack, lane: int, param: Optional[str], value) -> dict:
    k = stack.block_of(lane)
    p, q = (w[lane - stack.starts[k]].tolist() for w in stack.blocks[k])
    out = {"p": p, "q": q, "s": None, "t": None}
    return out if param is None else out | {param: float(value)}


def _stack(pairs: Sequence[tuple[Distribution, Distribution]], grids: dict) -> _Stack:
    return _Stack([(np.stack([p.weights for p, _ in pairs]),
                    np.stack([q.weights for _, q in pairs]))], grids)


# ---------------------------------------------------------------------------
# public checks
# ---------------------------------------------------------------------------

def check_chain(p: Distribution, q: Distribution, tol: float = DEFAULT_TOL) -> ChainReport:
    """Evaluate the seven-measure chain (and its published sub-chains) once."""
    _require_same_dim(p, q)
    _check_tol(tol)
    stack = _stack([(p, q)], _grids((), ()))
    cases = _check(CHAIN_CASES, stack, tol)
    return ChainReport({key: float(stack.term(key, None)[0]) for key in _CHAIN_TERMS}, cases)


def check_parametric(p: Distribution, q: Distribution,
                     s_grid: Sequence[float] = DEFAULT_GRID,
                     t_grid: Sequence[float] = DEFAULT_GRID,
                     tol: float = DEFAULT_TOL) -> list[CaseResult]:
    """Check every grid-parameterized claim on one pair; a sweep fragment."""
    _require_same_dim(p, q)
    _check_sized((s_grid, t_grid), "s and t grids")
    _check_tol(tol)
    grids = _grids(_grid(s_grid), _grid(t_grid))
    return _check(PARAMETRIC_CASES, _stack([(p, q)], grids), tol)


def check_bounds_suite(p: Distribution, q: Distribution,
                       s_grid: Sequence[float] = DEFAULT_GRID,
                       tol: float = DEFAULT_TOL) -> list[CaseResult]:
    """Check the ratio-range and bound-engine claims on one pair."""
    _require_same_dim(p, q)
    _check_sized((s_grid,), "s grid")
    _check_tol(tol)
    grids = _grids(_grid(s_grid), (), GeneratorFamilyKind)
    return _check(BOUNDS_CASES, _stack([(p, q)], grids), tol)


def pair_for(seed: int, dim: int, index: int) -> tuple[Distribution, Distribution]:
    """Row ``index`` of every block ``run_sweep`` samples for (seed, dim)."""
    _check_sampling(dim, seed, index)
    a, b = _sample_stack(int(seed), int(dim), 1, start=int(index))
    return Distribution(a[0]), Distribution(b[0])


def _sample_stack(seed: int, dim: int, count: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Pairs start .. start + count - 1 of the (seed, dim) stream as one
    (count, dim) block of P and one of Q, validated once. Pair i takes the
    2*dim words from 2*dim*i on; Philox makes 4 words per counter step."""
    bits = np.random.Philox(np.random.SeedSequence((seed, dim)))
    bits.advance(2 * dim * start // 4)
    bits.random_raw(2 * dim * start % 4)
    u = np.random.Generator(bits).random((count, 2, dim))
    w = _floored(-np.log1p(-u))  # inverse-CDF standard exponentials
    _check_simplex_rows(w)
    # contiguous P and Q rows, so their sums take the same bits in a block as alone
    return np.ascontiguousarray(w[:, 0]), np.ascontiguousarray(w[:, 1])


def run_sweep(config: SweepConfig = SweepConfig()) -> SweepSummary:
    """Run the whole registry over deterministic random pairs in one pass:
    each dim's ``pair_for`` pairs, sampled straight into one block."""
    start = time.perf_counter()
    grids = _grids(config.s_grid, config.t_grid, GeneratorFamilyKind)
    blocks = [_sample_stack(config.seed, dim, config.samples_per_dim) for dim in config.dims]
    results = _check(REGISTRY, _Stack(blocks, grids), config.tol)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))
    samples = len(config.dims) * config.samples_per_dim
    return SweepSummary(config=config, cases=results,
                        samples=samples, seed=config.seed, elapsed_ms=elapsed_ms)

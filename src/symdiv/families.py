"""One-parameter divergence families, their convex generators and the one
table of formulas behind them and the classic measures they contain.

* ``relative_information_type_s`` -- R_s, the power-family deformation of
  Kullback-Leibler divergence (KL(Q||P) at s = 0, KL(P||Q) at s = 1).
* ``j_divergence_type_s`` -- its symmetrization V_s: J at s in {0, 1},
  8*Hellinger at s = 1/2, half the symmetric chi-square at s in {-1, 2},
  symmetric under s <-> 1-s.
* ``ag_js_divergence_type_s`` -- the mixture family W_s: triangular/4 at
  s = -1, JS at s = 0, 4*d at s = 1/2, AG at s = 1, symmetric
  chi-square/16 at s = 2.

``generator_eval`` exposes the generators of V (PHI) and W (PSI) with
their first three derivatives, which the bound engine consumes.

Each measure is a sum of single-signed summands b f(x), x = a/b, written
once on u = x - 1 and L = log x, both exact near a = b. With
E(k) = (x^k - 1)/k = expm1(k L)/k (L at k = 0, u at k = 1):

* V's generator is E(s) E(1-s) and its slope E(s-1) + E(-s);
* relative information's is phi_s = (E(s) - u)/(s - 1), which takes its
  Taylor series in L where that difference cancels (alone, on a block
  wholly inside half the series edge: the same branch and bits);
  R_s for s > 1/2 is R_{1-s} with P and Q swapped, and W's summand is
  (a phi_s(m/a) + b phi_s(m/b))/2 with m = (a + b)/2;
* where every delta = (a - b)/(a + b) of a pair in a block is within the
  order's edge _DELTA_EDGE/max(|t|, 1), t = 1 - s, W's summand is its even
  series m delta^2 sum_{j<K} c_j delta^(2j), c_0 = 1/2, c_j = prod_{i=2}^{2j+1}
  (t - i)/(2j+2)!, K <= 5 (tail < 2^-53 c_0): no log, cancellation or stage one;
* J is V_0; JS and AG, the summands of W_0 and W_1, are
  (|a-b| log(hi/lo) - (a+b) log(m^2/ab))/4 and (a+b) log(m^2/ab)/4, both
  without cancellation; KL, R_s at its limit orders, keeps its definition
  sum a log(a/b) and so carries the weights' sum defect.

A family sum runs in two stages on each block of entries: stage one forms
the offsets, which do not depend on s (V's u and log1p(u), W's two midpoint
offsets and their log1p, R's log(a/b) with its expm1 and its exact log1p),
each only where the block needs it; stage two takes the order's summand on
them. A PHI or PSI bound report is stage two of V's or W's sum: the
family's summand, and (a - b) f' at x and x* = (a + b)/(2b) on the same
exact offsets, whose rows that do not depend on s join stage one. The family
functions and ``bound_report`` keep stage one in a one-slot memo (``_memo``):
one contiguous, read-only float64 table of its family's stages' rows (W's 11
take 5.5 MiB at n = 65536, a page faulted in once a stage fills it), keyed on
the family and the ordered pair, and freed before the next is built, so later
orders and reports on a pair skip stage one; beside it, the max |L| of each
row that ``_alone`` scans.
Arrays kept per block instead would fill the allocator's free space, and
other code would fault its pages anew.

Powers are taken in log space, yet E(s) of a large |s| overflows before V
scales it by E(1-s) and R by 1/(s-1): on (0.6, 0.4) against (0.4, 0.6), V_s
and R_s are inf at 76 integer orders each in +-[1750, 1789] whose true value
is finite. An order within ``LIMIT_TOLERANCE`` of 0 or 1 is clamped to that
order: the values inside a window are the limit values by contract.
Every evaluator takes a column of orders (``_column``): a grid leads the
result with its axis, one order broadcasts into the arguments. Each step
is elementwise or per row, and the exact rows (k = 0 or 1, s = 1/2, a
block within a series edge) take their own formula, so a grid row has
the bits of its order alone. Long sums run a block of entries at a time.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InputError
from .simplex import Distribution, _real, _require_same_dim

LIMIT_TOLERANCE = 1e-5
# window edges carry a 1e-6 relative cushion: decimal constants like 1 + 1e-5
# are not dyadic, so |s - 1| can exceed the literal tolerance by representation
# error alone
_WINDOW = LIMIT_TOLERANCE * (1.0 + 1e-6)
# entries per block of a long sum: 128 KiB float64 temporaries, within glibc's default
# mmap/trim thresholds (mallopt(3)), whose pages are reused, not faulted in again
_BLOCK = 16384
# phi_k takes its series where |L| max(|k - 1|, 1/2) is below the edge, so
# that the direct difference loses at most a factor 700; 8 terms of the
# series then reach the last bit; a block wholly within this share of
# every order's edge takes the series alone (``_alone``); W's series in delta (``_delta_edge``)
# is taken within _DELTA_EDGE/max(|1 - s|, 1), where at most 5 terms reach the last bit
_SERIES_EDGE, _SERIES_TERMS, _ALONE, _DELTA_EDGE = 0.003, 8, 0.5, 0.02


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


# ---------------------------------------------------------------------------
# the formula table: summands at x = a/b = 1 + u = e^L, for a column of orders
# ---------------------------------------------------------------------------

def _per_column(fn):
    """fn(k) of a column of orders, memoized on its values (a sweep reuses a
    few columns); one order, a numpy float, is its own key."""
    cached = functools.lru_cache(maxsize=256)(lambda key, shape: fn(
        np.frombuffer(key).reshape(shape) if shape else np.asarray(key)))
    return lambda k: cached(k.tobytes() if k.shape else k, k.shape)


def _column(orders, ndim: int):
    """Orders as a column: a 1-D grid over ``ndim`` more axes, its axis leading
    the result; one order as a numpy float, which broadcasts into them."""
    orders = np.asarray(orders, dtype=float)
    return orders.reshape(-1, *[1] * ndim) if orders.ndim else orders[()]


@_per_column
def _clamp(s):
    """s with the orders inside the window of 0 or 1 set to that order."""
    return np.where(np.abs(s) <= _WINDOW, 0.0, np.where(np.abs(s - 1.0) <= _WINDOW, 1.0, s))[()]


@_per_column
def _exact(s) -> tuple:
    """The column's exact rows: (order, rows) for the orders 0 and 1 it holds,
    1/s with 0 at s = 0 (rows that E takes as L), and whether all are 1/2."""
    flat = s.reshape(-1)
    return (tuple((v, flat == v) for v in (0.0, 1.0) if (flat == v).any()),
            np.divide(1.0, s, out=np.zeros_like(s), where=s != 0.0)[()], bool((flat == 0.5).all()))


def _by_order(s, rows, general, *args):
    """general(s, *args) over a column of orders, with its rows at an order
    that is a key of ``rows`` (0 or 1) taken by rows[order](*args), each
    argument that has the grid axis cut to them; one order takes its row's value."""
    groups = [(at, rows[order]) for order, at in _exact(s)[0] if order in rows]
    if not (groups and s.ndim):
        return groups[0][1](*args) if groups else general(s, *args)
    cut = lambda at: [v[at] if np.ndim(v) == s.ndim else v for v in args]
    rest = ~np.logical_or.reduce([at for at, _ in groups])
    out = np.empty(np.broadcast_shapes(s.shape, *map(np.shape, args)))
    for at, row in groups + [(rest, lambda *args: general(s[rest], *args))] * bool(rest.any()):
        out[at] = row(*cut(at))
    return out


def _e(k, L, u):
    """E(k) = expm1(k L)/k, with L in the rows at k = 0 and u at k = 1: one
    such order takes L or u itself, a grid overwrites those rows."""
    limits, reciprocal, _ = _exact(k)
    if limits and not k.ndim:
        return L if k == 0.0 else u
    out = np.multiply(k, L)
    np.multiply(np.expm1(out, out=out), reciprocal, out=out)
    for order, at in limits:
        np.copyto(out, u if order else L, where=at.reshape(k.shape))
    return out


@functools.lru_cache(maxsize=256)
def _phi_edge(k: float) -> tuple[float, float, tuple[float, ...], float]:
    """1/(k - 1); the least phi_k at the edge of its series, |L| = edge =
    _SERIES_EDGE/max(|k - 1|, 1/2), below which a direct value is replaced;
    the coefficients h_n/(n+2)! of L^(n+2), h_n = 1 + k + ... + k^n, that
    reach the last bit at the edge, whatever else shares a pass; edge."""
    h, scale, c = 1.0, 2.0, []
    for n in range(_SERIES_TERMS):
        c.append(h / scale)
        h, scale = 1.0 + k * h, scale * (n + 3)
    edge = _SERIES_EDGE / max(abs(k - 1.0), 0.5)
    least = min(L * L * sum(cn * L ** n for n, cn in enumerate(c)) for L in (edge, -edge))
    return 1.0 / (k - 1.0), least, tuple(c[:_series_length(k, edge)]), edge


@_per_column
def _phi_edges(k: np.ndarray):
    """1/(k - 1) and the least value of _phi_edge as columns, and the nearest edge."""
    rows = [_phi_edge(v) for v in k.reshape(-1).tolist()]
    return (*(np.array([row[i] for row in rows]).reshape(k.shape) for i in (0, 1)),
            min(row[3] for row in rows))


def _phi(k, L, u, log=None):
    """phi_k = (x^k - 1 - k u)/(k (k - 1)) for k != 1, the generator of
    relative information: (E(k) - u)/(k - 1), or where that cancels (below
    the least value at the edge) its series in L. L spans the trailing axes
    of the result; ``log(near)``, when given, is L exact at the flat indices ``near``."""
    if log is None and (out := _alone(k, L)) is not None:
        return out
    reciprocal, least, _ = _phi_edges(k)
    out = _e(k, L, u)
    out = out - u if out is L or out is u else np.subtract(out, u, out=out)
    out *= reciprocal
    near = np.flatnonzero(out < least)  # a mask is slow on mixed blocks, nonzero on 2-D ones
    if not near.size:
        return out
    # the near entries alone, each with its row's coefficients
    x = np.take(np.broadcast_to(L, out.shape), near) if log is None else log(near)
    rows = 0 if k.size == 1 else near // (out.size // k.size)
    np.put(out, near, _series(_coefficients(k)[:, rows], x))
    return out


def _alone(k, L: np.ndarray):
    """phi_k's series on all of L (_phi's, or R's exact log) when every |L| is
    within half of every order's series edge, else None. There phi_k, which
    grows as L^2 on either side, is below the least value at the edge by a
    factor of about 4, far more than the rounding of the direct value can
    close: the mask would take the series on every entry, so the block takes
    it alone, with the same bits. The first entry is looked at before any
    pass; an L with a grid axis of its own takes the mask."""
    limit = _ALONE * _phi_edges(k)[2]
    if (L.size and abs(L.flat[0]) <= limit and (k.size == 1 or L.ndim < k.ndim)
            and _top(L) <= limit):
        return _series(_coefficients(k).reshape((-1,) + k.shape), L)


def _top(L) -> float:
    """max |L|, for a row of the memo's table (a read-only view of it) scanned once and kept
    beside the table with the row, which keeps the row's id its own."""
    table = _last
    if table is None or L.base is not table._fill:
        return np.abs(L).max()
    return (table.tops.get(id(L)) or table.tops.setdefault(id(L), (L, np.abs(L).max())))[1]


@_per_column
def _coefficients(k) -> np.ndarray:
    """phi_k's series coefficients, a column per order of k, zero past its
    order's terms (_phi_edge): a zero lead keeps Horner's bits."""
    rows = [_phi_edge(v)[2] for v in k.reshape(-1).tolist()]
    return np.array(list(itertools.zip_longest(*rows, fillvalue=0.0)))


def _series_length(k: float, top: float) -> int:
    """The terms of phi_k's series that reach the last bit at |L| <= top:
    |h_n| L^n <= (n + 1) q^n with q = max(1, |k|) top."""
    q, n, term = max(1.0, abs(k)) * top, 1, 1.0
    while n < _SERIES_TERMS and (n + 1) * term * q / (n + 2) > 2.0 ** -55:
        term *= q / (n + 2)
        n += 1
    return n


def _series(c, x, last=None):
    """sum c_n x^(n+2) by Horner's rule; sum c_n x^(n+1) last, given ``last``."""
    out = np.multiply(c[-1], x)
    for coefficient in c[-2::-1]:
        out += coefficient
        out *= x
    out *= x if last is None else last
    return out


@functools.lru_cache(maxsize=256)
def _delta_edge(s: float, edge: float) -> tuple[float, tuple[float, ...]]:
    """W's series in delta at order s (module docstring): its edge squared, with the edge's sign,
    and the c_j/2 (m's 1/2 taken in) that drop a tail below 2^-53 c_0 there, as past term j a
    term over the one before is at most ((|t| + 2j + 5) edge/(2j + 5))^2; -1 at JS, AG or none."""
    t, c = 1.0 - s, [0.25]
    edge /= max(abs(t), 1.0)
    for k in range(0, 2 * _SERIES_TERMS if s not in (0.0, 1.0) else 0, 2):  # k = 2j
        step = c[-1] * (t - k - 2) * (t - k - 3) / ((k + 3) * (k + 4))
        tail, ratio = abs(step) * edge ** (k + 2), ((abs(t) + k + 5) * edge / (k + 5)) ** 2
        if tail == 0.0 or ratio < 1.0 and tail <= 2.0 ** -55 * (1.0 - ratio):
            return edge * abs(edge), tuple(c)
        c.append(step)
    return -1.0, ()


def _v_term(s, L, u, lo=None):
    """V's generator phi_s(x) = E(s) E(1-s) at clamped orders, squared at 1/2, times
    ``lo`` if given (V's summand); L and u are the caller's temporaries, which it may
    overwrite unless they are read-only (the memo's)."""
    out = _e(s, L, u)
    other = out if _exact(s)[2] else _e(1.0 - s, L, u)
    out = np.multiply(out, other, out=out if out.flags.writeable else None)
    return out if lo is None else np.multiply(out, lo, out=out)


def _w_term(s, a, b, offsets, at_a=None):
    """W's summand b psi_s(a/b) at a clamped order, on the offsets of ``_w_offsets``."""
    return _by_order(s, {0.0: _js_row, 1.0: _ag_row}, _w_general, a, b, offsets, at_a)


def _w_summand(s, a, b, offsets, at_a=None, pairs=None):
    """``_w_term`` in a sum, but W's series in delta (``_delta_edge``) at an order's rows on each
    pair in the block within its edge; ``pairs``: a sweep run's per-pair reduction (``total``),
    else the block is one pair's, and its first entry is looked at before any pass."""
    rows = [_delta_edge(v, _DELTA_EDGE) for v in s.reshape(-1).tolist()]
    first, limit = (a.flat[0] - b.flat[0]) / (a.flat[0] + b.flat[0]), max(row[0] for row in rows)
    if limit < 0.0 or pairs is None and first * first > limit:
        return _w_term(s, a, b, offsets, at_a)
    total = a + b
    x = (a - b) / total
    x *= x
    top = x.max(axis=-1, keepdims=True) if pairs is None else pairs(  # each entry's pair's max
        x, lambda v: np.repeat(v.max(axis=-1), v.shape[-1], axis=-1))
    if top.min() > limit:  # no pair takes it at any order
        return _w_term(s, a, b, offsets, at_a)
    at = np.array([row[0] for row in rows]).reshape(s.shape) >= top
    c = rows[0][1] if not s.ndim else np.array(list(itertools.zip_longest(
        *(row[1] for row in rows), fillvalue=0.0))).reshape((-1,) + s.shape)  # zero leads keep bits
    out = _series(c, x, total)
    if not at.all():
        np.copyto(out, _w_term(s, a, b, offsets, at_a), where=~at)
    return out


def _w_general(s, a, b, offsets, at_a=None):
    """(a phi_s(m/a) + b phi_s(m/b))/2 on the offsets of m/a and m/b; at_a: phi_s(m/a), if known."""
    la, ua, lb, ub = offsets(_w_offsets, a, b)
    out = _phi(s, la, ua) if at_a is None else at_a
    out = np.multiply(out, a, out=None if out is at_a else out)
    at_b = _phi(s, lb, ub)
    at_b *= b
    out += at_b
    out *= 0.5
    return out


def _js_row(a, b, *_):
    """JS's summand: both terms are >= 0 and keep a third of their size."""
    d = a - b
    size = np.abs(d)
    out = np.minimum(a, b)
    np.divide(size, out, out=out)
    np.log1p(out, out=out)
    out *= size
    size = _log_mid(a, b, d)
    size *= a + b
    out -= size
    out *= 0.25
    return out


def _ag_row(a, b, *_):
    out = _log_mid(a, b, a - b)
    out *= a + b
    out *= 0.25
    return out


def _log_mid(a, b, d):
    """log(m^2/(ab)) = log1p(d^2/(4ab)) >= 0."""
    out = d * d
    out /= a
    out /= b
    out *= 0.25
    return np.log1p(out, out=out)


# ---------------------------------------------------------------------------
# families over distribution pairs
# ---------------------------------------------------------------------------

def relative_information_type_s(s: float | FamilyParam, p: Distribution,
                                q: Distribution) -> float:
    return _at_order(_r_values, s, p, q)


def j_divergence_type_s(s: float | FamilyParam, p: Distribution,
                        q: Distribution) -> float:
    return _at_order(_v_values, s, p, q)


def ag_js_divergence_type_s(s: float | FamilyParam, p: Distribution,
                            q: Distribution) -> float:
    return _at_order(_w_values, s, p, q)


def _at_order(values, s, p: Distribution, q: Distribution) -> float:
    column = _column(as_param(s).s, 1)
    _require_same_dim(p, q)
    return float(values(column, p.weights, q.weights, pair=(p, q)))


# V_s, W_s and R_s over a column of orders, summed over the last axis of weight arrays
# (or by ``total``, see ``_blocked``): one value per pair of rows, one row per order

def _v_values(s, a: np.ndarray, b: np.ndarray, total=None, pair=None):
    return _staged(_v_summands, _clamp(s), a, b, total, pair)


def _w_values(s, a: np.ndarray, b: np.ndarray, total=None, pair=None):
    return _staged(functools.partial(_w_summand, pairs=total), _clamp(s), a, b, total, pair)


def _r_values(s, a: np.ndarray, b: np.ndarray, total=None, pair=None):
    """R_s(P||Q) = sum b phi_s(a/b) at one order s, and R_{1-s}(Q||P) for
    s > 1/2. At its limit orders it is KL(Q||P) and KL(P||Q), as defined."""
    s = _clamp(s)
    if s > 0.5:
        return _r_values(1.0 - s, b, a, total, pair and pair[::-1])
    if s == 0.0:
        return _blocked(_kl_summands, b, a, total)
    return _staged(_r_summands, s, a, b, total, pair)


def _kl_summands(a, b):
    """KL(P||Q)'s summands a log(a/b); their sum carries the weights' sum defect. Each
    log is log1p((a - b)/b), exact near a = b (where a << b, a/b is off by its rounding
    alone, and a small term keeps it small), or log(a) - log(b) where that quotient is -1."""
    out = a - b
    out /= b
    if out.min() == -1.0:  # a/b below the float spacing at 1, where log1p is -inf
        far = out == -1.0
        return np.where(far, a * (np.log(a) - np.log(b)), a * np.log1p(np.where(far, 0.0, out)))
    np.log1p(out, out=out)
    out *= a
    return out


def _blocked(summands, a: np.ndarray, b: np.ndarray, total=None):
    """summands(a, b) summed over the last axis, a block of entries at a time; a
    sweep run gives ``total``, which takes each of its pairs' sums instead."""
    if a.shape[-1] <= _BLOCK:
        return summands(a, b).sum(axis=-1) if total is None else total(summands(a, b))
    return sum(summands(a, b).sum(axis=-1) if total is None else total(summands(a, b))
               for a, b in _blocks(a, b))


def _blocks(a: np.ndarray, b: np.ndarray) -> list:
    """(a, b) cut into blocks of ``_BLOCK`` entries along the last axis."""
    return [(a[..., i:i + _BLOCK], b[..., i:i + _BLOCK]) for i in range(0, a.shape[-1], _BLOCK)]


def _staged(summands, s, a: np.ndarray, b: np.ndarray, total, pair):
    """summands(s, a, b, offsets) summed over blocks as by ``_blocked``; offsets(stage, a, b,
    *earlier) is stage one on a block, on rows of an earlier stage: the memo's rows on the
    ordered ``pair`` (``_PLACES``), or formed."""
    starts, rows = iter(range(0, a.shape[-1], _BLOCK)), _formed if pair is None else (
        lambda stage, a, b, *earlier, start: _memo(stage, *pair).rows(stage, a, b, start, *earlier))
    # _blocked takes each block once, in order
    return _blocked(lambda a, b: summands(s, a, b, functools.partial(rows, start=next(starts))),
                    a, b, total)


def _formed(stage, a, b, *earlier, start=None) -> tuple:
    return stage(a, b, *earlier)


def _v_summands(s, a, b, offsets):
    return _v_term(s, *offsets(_v_offsets, a, b))


def _r_summands(s, a, b, offsets):
    """b phi_s(a/b) on L = log(a/b) and u = expm1(L), so that an error in L
    moves a/b alone; where phi_s takes its series, on L = log1p((a - b)/b),
    exact near a = b, and over the whole block when its first entry is near."""
    first = a.flat[0] / b.flat[0] - 1.0  # the first entry's offset u
    exact = offsets(_r_exact, a, b)[0] if abs(first) <= _ALONE * _phi_edges(s)[2] else None
    out = None if exact is None else _alone(s, exact)
    if out is None:
        near_log = (lambda near: np.take(exact, near)) if exact is not None else (
            lambda near: np.log1p((np.take(a, near) - np.take(b, near)) / np.take(b, near)))
        out = _phi(s, *offsets(_r_logs, a, b), near_log)
    out *= b
    return out


def _v_offsets(a, b):
    """log1p(u), u = |a - b|/lo and lo = min(a, b): phi is self-conjugate
    (b phi(a/b) = a phi(b/a)), so V's summand is taken at the ratio >= 1."""
    u = np.subtract(a, b)
    np.abs(u, out=u)
    lo = np.minimum(a, b)
    u /= lo
    return np.log1p(u), u, lo


def _w_offsets(a, b):
    """log1p and offset of m/a = 1 - d/(2a) and m/b = 1 + d/(2b), d = a - b: both
    ratios exceed 1/2, so the offsets and logs are accurate for every ratio."""
    d = a - b
    ua, ub = d / a, d / b
    ua *= -0.5
    ub *= 0.5
    return np.log1p(ua), ua, np.log1p(ub), ub


def _r_logs(a, b):
    L = np.log(a / b)
    return L, np.expm1(L)


def _r_exact(a, b):
    return (np.log1p((a - b) / b),)


def _phi_mid(a, b, L):
    """A PHI report's rows on V's L: d = a - b, x* - 1 = ub = d/(2b) (W's, with its bits) and
    its log1p, x - 1 = 2 ub and log x = copysign(L, ub)."""
    d = a - b
    ub = 0.5 * (d / b)
    return d, ub, np.log1p(ub), 2.0 * ub, np.copysign(L, ub)


def _psi_mid(a, b, ub):
    """A PSI report's rows on W's ub: d = a - b, x = a/b, x* = 1 + ub, and the offsets of m*/x*
    and m* (``_to_mid``) with their log1p, as ``_psi_slope`` takes them."""
    x_mid = 1.0 + ub
    ua_mid, ub_mid = _to_mid(x_mid, ub)
    return a - b, a / b, x_mid, np.log1p(ua_mid), ua_mid, np.log1p(ub_mid), ub_mid


# each family's stages and row counts in table order (its own, a report's); each stage's place
_STAGES = {"V": {_v_offsets: 3, _phi_mid: 5}, "W": {_w_offsets: 4, _psi_mid: 7},
           "R": {_r_logs: 2, _r_exact: 1}}
_PLACES = {stage: (family, first) for family, stages in _STAGES.items()
           for stage, first in zip(stages, itertools.accumulate(stages.values(), initial=0))}


class _Table:
    """The memo's table, a row per row of its family's stages, and its per-block views; a stage's
    rows are formed on a block (from ``earlier`` stages' rows) when a call first needs them, and
    threads that both form them write equal bits. ``tops`` keeps each ``_alone`` row's max |L|."""

    def __init__(self, key: tuple, n: int):
        height = sum(_STAGES[key[0]].values())
        self.key, self.views, self.tops, self._fill = key, {}, {}, np.empty((height, n))
        self.table = self._fill.view()
        self.table.flags.writeable = False

    def rows(self, stage, a, b, start: int, *earlier) -> tuple:
        if (stage, start) not in self.views:
            rows = stage(a, b, *earlier)
            at = slice(_PLACES[stage][1], None), slice(start, start + a.shape[-1])
            for row, value in zip(self._fill[at], rows):
                row[...] = value
            self.views[stage, start] = tuple(self.table[at][:len(rows)])
        return self.views[stage, start]


_last = None  # the memo: the last family call's or report's table


def _memo(stage, p: Distribution, q: Distribution) -> _Table:
    """The last table if it is stage's family's on (p, q) (hashed by identity), else a new one."""
    global _last
    table, key = _last, (_PLACES[stage][0], p, q)
    if table is None or table.key != key:
        _last = table = None  # the old table is freed before the new one is built
        _last = table = _Table(key, p.dim)
    return table


# ---------------------------------------------------------------------------
# generator functions phi_s (V family) and psi_s (W family)
# ---------------------------------------------------------------------------

def generator_eval(family: GeneratorFamilyKind, s: float | FamilyParam,
                   x, order: int = 0):
    """Evaluate a family generator or one of its first three derivatives.

    ``x`` may be a positive scalar or array; the result matches its shape.
    Orders 2 and 3 are pole-free for every ``s``; the value and first
    derivative clamp an order near s in {0, 1} to it.
    """
    sv = as_param(s).s
    if order not in (0, 1, 2, 3):
        raise InputError("UNSUPPORTED_ORDER", f"derivative order must be 0..3, got {order}")
    xv = _argument(x)  # the argument is checked before the family
    out = _family_eval(family)(_column(sv, xv.ndim), xv, order)
    return out if np.ndim(x) else float(out[0])


def _family_eval(family: GeneratorFamilyKind):
    """The evaluator (s, x, order) of a generator family; refuses anything else.
    s is a column of orders that broadcasts against x (``_column``)."""
    if not isinstance(family, GeneratorFamilyKind):
        raise InputError("PARAMETER_OUT_OF_RANGE", f"unknown generator family {family!r}")
    return _phi_eval if family is GeneratorFamilyKind.PHI else _psi_eval


def _argument(x) -> np.ndarray:
    """A generator argument as a float array of at least one axis, refused
    unless finite and > 0."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xv)) or np.any(xv <= 0.0):
        raise DomainError("NONPOSITIVE_ARGUMENT", "generator argument must be finite and > 0")
    return xv


def _phi_eval(s, x: np.ndarray, order: int):
    if order < 2:
        s, L, u = _clamp(s), np.log(x), x - 1.0
        return _v_term(s, L, u) if order == 0 else _phi_slope(s, L, u)
    L = np.log(x)
    if order == 2:
        return np.exp((s - 2.0) * L) + np.exp((-s - 1.0) * L)
    return -((2.0 - s) * np.exp((s - 3.0) * L) + (s + 1.0) * np.exp((-s - 2.0) * L))


def _psi_eval(s, x: np.ndarray, order: int):
    if order == 0:
        return _w_term(_clamp(s), x, 1.0, _formed)
    if order == 1:
        ua, ub = _to_mid(x, x - 1.0)
        return _psi_slope(_clamp(s), x, x - 1.0, (np.log1p(ua), ua, np.log1p(ub), ub))
    L, half = np.log(x), np.log1p((x - 1.0) / 2.0)
    if order == 2:
        return ((np.exp((-s - 1.0) * L) + 1.0) / 8.0) * np.exp((s - 2.0) * half)
    return -(np.exp(s * half) / (2.0 * (x + 1.0) ** 3)) * (
        3.0 * np.exp((-s - 1.0) * L) + (s + 1.0) * np.exp((-s - 2.0) * L) + (2.0 - s))


def _phi_slope(s, L, u):
    """phi_s' = E(s - 1) + E(-s), at a clamped order."""
    return _e(s - 1.0, L, u) + _e(-s, L, u)


def _psi_slope(s, x, d, rows, at_a=None):
    """psi_s' at x, d = x - 1 (AG's row alone reads it), on ``rows``: the offsets of m/x and m
    and their log1p (la, ua, lb, ub), and ``at_a`` = phi_s(m/x) where the caller has it."""
    return _by_order(s, {1.0: _ag_slope}, _psi_general, x, d, *rows, at_a)


def _psi_general(s, x, _d, la, ua, lb, ub, at_a):
    """psi_s' = phi_s(m/x)/2 - E(s - 1) at m/x over 4x + E(s - 1) at m over 4,
    the derivative of _w_general at b = 1 (phi_s' = E(s - 1))."""
    slope = _e(s - 1.0, la, ua) / x
    slope -= _e(s - 1.0, lb, ub)
    slope *= 0.5
    np.subtract(_phi(s, la, ua) if at_a is None else at_a, slope, out=slope)
    slope *= 0.5
    return slope


def _to_mid(x, d):
    """The offsets of m/x and m from 1, m = (x + 1)/2 and d = x - 1: -d/(2x) and d/2."""
    return -0.5 * (d / x), 0.5 * d


def _ag_slope(x, d, *_):
    """psi_1' = log(m^2/x)/4 + (x - 1)/(4x), the derivative of _ag_row at b = 1."""
    return 0.25 * (_log_mid(x, 1.0, d) + d / x)


# a report's summands, stage two of its family's sum: the family's, and d f' at x = a/b = 1 + 2 ub
# and x* = 1 + ub, d = a - b and ub = d/(2b), on the same exact offsets; each only if asked for

def _phi_terms(s, a, b, offsets, _pairs=None, value=True, slopes=True):
    """On V's rows, and on the report's rows (``_phi_mid``), log x = copysign(L, ub) among them."""
    s, (L, u, lo) = _clamp(s), offsets(_v_offsets, a, b)
    out = []
    if slopes:  # before V's summand, which may overwrite L and u
        d, ub, L_mid, x_less, L_x = offsets(_phi_mid, a, b, L)
        out = [_phi_slope(s, L_x, x_less) * d, _phi_slope(s, L_mid, ub) * d]
    return ([_v_term(s, L, u, lo)] if value else []) + out


def _psi_terms(s, a, b, offsets, pairs=None, value=True, slopes=True):
    """On W's rows, m/x = 1 + ua and m = 1 + ub, with phi_s(m/x) taken once where both the
    summand and the slope at x need it, and on the report's rows (``_psi_mid``)."""
    s = _clamp(s)
    la, ua, lb, ub = rows = offsets(_w_offsets, a, b)
    exact = dict(_exact(s)[0])
    at_a = None if exact or not (value and slopes) else _phi(s, la, ua)  # JS, AG: none
    out = []
    if slopes:
        d, x, x_mid, *mid = offsets(_psi_mid, a, b, ub)
        ag = 2.0 * ub if 1.0 in exact else None  # x - 1, for AG's slope alone
        out = [_psi_slope(s, x, ag, rows, at_a) * d, _psi_slope(s, x_mid, ub, mid) * d]
    return ([_w_summand(s, a, b, lambda *_: rows, at_a, pairs)] if value else []) + out

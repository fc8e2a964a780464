"""Validated probability distributions on the open simplex.

A :class:`Distribution` is a point of the open probability simplex: every
weight is strictly positive and the weights sum to one within
``NORMALIZATION_TOL``. All values are immutable after construction and
every operation here is pure, so concurrent use needs no coordination.

This module also owns the histogram input formats shared with the CLI:
a JSON object ``{"weights": [...]}`` or a CSV file with one number per
line, both parsed as decimal doubles.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DomainError, InputError

NORMALIZATION_TOL = 1e-9
SIMPLEX_FLOOR = 1e-6


class NormalizationMode(Enum):
    REJECT = "reject"
    RENORMALIZE = "renormalize"


@dataclass(frozen=True)
class NormalizationPolicy:
    """How :func:`validate_distribution` treats raw weight vectors.

    Under RENORMALIZE, ``epsilon`` is added to every entry before scaling
    to unit sum; it must stay below ``1/n`` so smoothing cannot invert the
    ordering of the weights.
    """

    mode: NormalizationMode = NormalizationMode.REJECT
    epsilon: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0 or not np.isfinite(self.epsilon):
            raise InputError("PARAMETER_OUT_OF_RANGE",
                             f"smoothing epsilon must be finite and >= 0, got {self.epsilon}")


REJECT = NormalizationPolicy(NormalizationMode.REJECT)
RENORMALIZE = NormalizationPolicy(NormalizationMode.RENORMALIZE)


@dataclass(frozen=True, eq=False)
class Distribution:
    """A point of the open probability simplex.

    Invariants: every weight is finite and strictly positive, the vector
    has length >= 2, and the sum is within ``NORMALIZATION_TOL`` of one.
    The backing array is read-only.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise InputError("DIMENSION_TOO_SMALL",
                             f"need at least 2 weights, got shape {w.shape}")
        _check_simplex_rows(w)
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return int(self.weights.size)

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.weights)

    def __repr__(self) -> str:
        inner = ", ".join(f"{x:.6g}" for x in self.weights)
        return f"Distribution({inner})"


@dataclass(frozen=True)
class RatioBounds:
    """Extreme likelihood ratios ``r = min p_i/q_i`` and ``R = max p_i/q_i``.

    For two simplex points these straddle one: ``0 < r <= 1 <= R``.
    ``degenerate`` is true exactly when ``r == R``, i.e. when P equals Q
    componentwise.
    """

    r: float
    R: float
    degenerate: bool = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.r <= 1.0 <= self.R < np.inf):
            raise DomainError("PARAMETER_OUT_OF_RANGE",
                              f"ratio bounds must satisfy 0 < r <= 1 <= R, got ({self.r}, {self.R})")
        object.__setattr__(self, "degenerate", self.r == self.R)


def _check_simplex_rows(w: np.ndarray) -> None:
    """The open-simplex contract for each row (last axis) of ``w``."""
    if not np.all(np.isfinite(w)):
        raise InputError("NON_FINITE", "weights must all be finite")
    if np.any(w <= 0.0):
        raise InputError("NONPOSITIVE_WEIGHT",
                         "weights must be strictly positive (open simplex)")
    totals = np.atleast_1d(w.sum(axis=-1))
    far = np.abs(totals - 1.0) > NORMALIZATION_TOL
    if far.any():
        raise InputError("NOT_NORMALIZED", f"weights sum to {float(totals[far][0])!r}, "
                                           f"expected 1 +- {NORMALIZATION_TOL}")


def validate_distribution(raw, policy: NormalizationPolicy = REJECT) -> Distribution:
    """Validate a raw weight sequence against the open-simplex contract.

    REJECT mode refuses nonpositive entries and sums outside tolerance.
    RENORMALIZE adds ``policy.epsilon`` to each entry and rescales to unit
    sum, which also requires every smoothed entry to be positive.
    """
    w = np.asarray(raw, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise InputError("DIMENSION_TOO_SMALL",
                         f"need at least 2 weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise InputError("NON_FINITE", "weights must all be finite")
    if policy.mode is NormalizationMode.RENORMALIZE:
        if policy.epsilon >= 1.0 / w.size:
            raise InputError("PARAMETER_OUT_OF_RANGE",
                             f"smoothing epsilon must be < 1/n = {1.0 / w.size}, got {policy.epsilon}")
        w = w + policy.epsilon
        if np.any(w <= 0.0):
            raise InputError("NONPOSITIVE_WEIGHT",
                             "weights still nonpositive after smoothing")
        w = w / w.sum()
    return Distribution(w)


def mixture(p: Distribution, q: Distribution) -> Distribution:
    """Midpoint (P + Q) / 2 of two distributions of equal dimension."""
    _require_same_dim(p, q)
    return Distribution((p.weights + q.weights) / 2.0)


def ratio_bounds(p: Distribution, q: Distribution) -> RatioBounds:
    """Extreme ratios of P against Q. Ratios are formed directly: after
    validation the weights are bounded away from zero, so p_i/q_i cannot
    overflow. Within the normalization tolerance the extremes can sit on
    the wrong side of one by up to ~2e-9 (min ratio is below the mass
    ratio sum(P)/sum(Q)); the interval is widened to include one, which
    keeps every downstream bound valid."""
    _require_same_dim(p, q)
    ratios = p.weights / q.weights
    lo, hi = float(ratios.min()), float(ratios.max())
    return RatioBounds(min(lo, 1.0), max(hi, 1.0))


def sample_simplex(n: int, seed: int) -> Distribution:
    """Deterministic uniform draw from the open simplex.

    Normalized standard-exponential draws are uniform on the simplex; the
    result is floored at ``SIMPLEX_FLOOR`` and renormalized so likelihood
    ratios (and hence every bound formula downstream) stay well
    conditioned. The RNG state is local to the call: same seed, same
    output.
    """
    if n < 2:
        raise InputError("DIMENSION_TOO_SMALL", f"need n >= 2, got {n}")
    return Distribution(_floored(np.random.default_rng(seed).standard_exponential(n)))


def _floored(draws: np.ndarray) -> np.ndarray:
    """The sampling formula of ``sample_simplex`` on each row (last axis) of
    positive draws: scale to unit sum, floor at ``SIMPLEX_FLOOR``, rescale."""
    w = draws / draws.sum(axis=-1, keepdims=True)
    w = np.maximum(w, SIMPLEX_FLOOR)
    return w / w.sum(axis=-1, keepdims=True)


def _require_same_dim(p: Distribution, q: Distribution) -> None:
    if p.dim != q.dim:
        raise InputError("DIMENSION_MISMATCH",
                         f"dimension mismatch: {p.dim} vs {q.dim}")


# ---------------------------------------------------------------------------
# histogram input formats (shared with the CLI)
# ---------------------------------------------------------------------------

def parse_weights(text: str) -> list[float]:
    """Parse histogram text: JSON ``{"weights": [...]}`` or one-number-per-line CSV."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError("BAD_INPUT_FILE", f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "weights" not in obj:
            raise InputError("BAD_INPUT_FILE", 'JSON input must be an object with a "weights" array')
        values = obj["weights"]
        # bool is an int subclass: JSON true/false are not weights
        if not isinstance(values, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise InputError("BAD_INPUT_FILE", '"weights" must be an array of numbers')
        return [float(v) for v in values]
    values = []
    for row in csv.reader(io.StringIO(text)):
        if not row or not row[0].strip():
            continue
        try:
            values.append(float(row[0]))
        except ValueError as exc:
            raise InputError("BAD_INPUT_FILE", f"not a number: {row[0]!r}") from exc
    if not values:
        raise InputError("BAD_INPUT_FILE", "no numbers found in input")
    return values


def load_weights(path: str | Path) -> list[float]:
    """Read a histogram file (JSON or CSV format, detected from content)."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("BAD_INPUT_FILE", f"cannot read {path}: {exc}") from exc
    return parse_weights(text)

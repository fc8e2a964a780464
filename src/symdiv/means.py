"""Power-logarithmic means L_p and their raised form L_p^p.

These two-argument means interpolate the logarithmic (p = -1), identric
(p = 0), and arithmetic (p = 1) means. The tests check the endpoint and
curvature bounds of :mod:`symdiv.csiszar` against closed forms in them;
the package re-exports them, but no module of the engine uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .simplex import _real

# generic-branch formulas lose a digit ~1e-9 from the poles; dispatch there
BRANCH_TOL = 1e-9
# below this relative spread of (a, b) every formula cancels; the midpoint
# matches L_p to O(spread^2): within 2.5e-13 relative for |p| <= 5
NEAR_EQUAL = 1e-6


@dataclass(frozen=True)
class MeanQuery:
    """One mean evaluation: order ``p``, arguments ``a, b > 0``.

    ``raised=False`` computes L_p; ``raised=True`` computes L_p^p (the
    same quantity before taking the 1/p root, with its own branch values
    at p = -1 and p = 0). ``a == b`` is served by the limit L_p(a,a) = a,
    and nearly equal arguments by their midpoint.
    """

    p: float
    a: float
    b: float
    raised: bool = False

    def __post_init__(self):
        if not all(map(_real, (self.p, self.a, self.b))):
            raise DomainError("PARAMETER_OUT_OF_RANGE", f"mean fields must be real numbers, "
                              f"got {(self.p, self.a, self.b)!r}")
        if not (self.a > 0 and self.b > 0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("NONPOSITIVE_ARGUMENT",
                              f"mean arguments must be finite and > 0, got ({self.a}, {self.b})")
        if not math.isfinite(self.p):
            raise DomainError("PARAMETER_OUT_OF_RANGE", f"mean order must be finite, got {self.p}")


def log_power_mean(query: MeanQuery) -> float:
    """Evaluate L_p(a, b) or L_p^p(a, b) with branch handling at p in {-1, 0}."""
    p, a, b = query.p, query.a, query.b
    if abs(b - a) <= NEAR_EQUAL * max(a, b):
        mid = a + (b - a) / 2.0
        return mid ** p if query.raised else mid
    if abs(p + 1.0) <= BRANCH_TOL:
        lpp = (math.log(b) - math.log(a)) / (b - a)
        return lpp if query.raised else 1.0 / lpp
    if abs(p) <= BRANCH_TOL:
        if query.raised:
            return 1.0
        return math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)
    lpp = (b ** (p + 1.0) - a ** (p + 1.0)) / ((p + 1.0) * (b - a))
    return lpp if query.raised else lpp ** (1.0 / p)


def raised_mean(p: float, a: float, b: float) -> float:
    """Shorthand for L_p^p(a, b); the form the bound formulas consume."""
    return log_power_mean(MeanQuery(p, a, b, raised=True))

"""50-digit mpmath reference values, straight from the defining formulas.

The formulas follow ``tests/oracle.py``; this module never imports the
package under test. Two differences matter for exactness:

* inputs convert with ``mpf(float)``, which is exact, not through their
  decimal repr, which can move a near-diagonal pair by half an ulp;
* the families are summed term by term, ``sum q f(p/q)`` with the unit
  mass subtracted inside each term, which is the program's stated
  definition and stays exact when the float weights do not sum to one
  exactly.

Every routine takes ``rows``: a list of distinct ``(a, b, count)``
triples, so a pair of 65536 entries with 64 distinct rows costs 64 terms.
"""

from __future__ import annotations

from collections import Counter

from mpmath import mp, mpf

mp.dps = 50


def rows_of(p, q) -> list[tuple]:
    counts = Counter(zip((float(v) for v in p), (float(v) for v in q)))
    return [(mpf(a), mpf(b), c) for (a, b), c in sorted(counts.items())]


def _sum(rows, term):
    return mp.fsum(c * term(a, b) for a, b, c in rows)


# -- classic measures ------------------------------------------------------

def _js(a, b):
    m = (a + b) / 2
    return (a * mp.log(a / m) + b * mp.log(b / m)) / 2


def _ag(a, b):
    m = (a + b) / 2
    return m * mp.log(m / mp.sqrt(a * b))


_CLASSIC = {
    "HELLINGER": lambda a, b: (mp.sqrt(a) - mp.sqrt(b)) ** 2 / 2,
    "BHATTACHARYYA": lambda a, b: mp.sqrt(a * b),
    "TRIANGULAR": lambda a, b: (a - b) ** 2 / (a + b),
    "HARMONIC": lambda a, b: 2 * a * b / (a + b),
    "SYM_CHI2": lambda a, b: (a - b) ** 2 * (a + b) / (a * b),
    "CHI2": lambda a, b: (a - b) ** 2 / b,
    "KL": lambda a, b: a * mp.log(a / b),
    "J": lambda a, b: (a - b) * mp.log(a / b),
    "JS": _js,
    "AG": _ag,
    "TOTAL_VARIATION": lambda a, b: abs(a - b),
}


def classic(kind: str, rows) -> mpf:
    if kind == "D_NEW":
        return 1 - _sum(rows, lambda a, b: ((mp.sqrt(a) + mp.sqrt(b)) / 2)
                        * mp.sqrt((a + b) / 2))
    return _sum(rows, _CLASSIC[kind])


def vajda(m: float, rows) -> mpf:
    m = mpf(m)
    return _sum(rows, lambda a, b: abs(a - b) ** m / b ** (m - 1))


# -- type-s families (limit forms at s in {0, 1}) ----------------------------

def relative_information(s: float, rows) -> mpf:
    if s == 0:
        return _sum(rows, lambda a, b: b * mp.log(b / a))
    if s == 1:
        return classic("KL", rows)
    s = mpf(s)
    return _sum(rows, lambda a, b: a ** s * b ** (1 - s) - s * a - (1 - s) * b) / (s * (s - 1))


def v_family(s: float, rows) -> mpf:
    if s in (0, 1):
        return classic("J", rows)
    s = mpf(s)
    return _sum(rows, lambda a, b: a ** s * b ** (1 - s) + a ** (1 - s) * b ** s
                - a - b) / (s * (s - 1))


def w_family(s: float, rows) -> mpf:
    if s == 0:
        return classic("JS", rows)
    if s == 1:
        return classic("AG", rows)
    s = mpf(s)
    return _sum(rows, lambda a, b: ((a ** (1 - s) + b ** (1 - s)) / 2)
                * ((a + b) / 2) ** s - (a + b) / 2) / (s * (s - 1))


FAMILY = {
    "j_divergence_type_s": v_family,
    "ag_js_divergence_type_s": w_family,
    "relative_information_type_s": relative_information,
}

# the value of a bound report is the f-divergence of the family generator
GENERATOR_VALUE = {"PHI": v_family, "PSI": w_family}


def generator(kind: str, s: float):
    """The convex generator f with sum q f(p/q) = V_s (PHI) or W_s (PSI)."""
    if kind == "PHI":
        if s in (0, 1):
            return lambda x: (x - 1) * mp.log(x)
        s = mpf(s)
        return lambda x: (x ** s + x ** (1 - s) - 1 - x) / (s * (s - 1))
    if s == 0:
        return lambda x: x / 2 * mp.log(x) - (x + 1) / 2 * mp.log((x + 1) / 2)
    if s == 1:
        return lambda x: (x + 1) / 2 * mp.log((x + 1) / 2 / mp.sqrt(x))
    s = mpf(s)
    return lambda x: (((x ** (1 - s) + 1) / 2) * ((x + 1) / 2) ** s - (x + 1) / 2) / (s * (s - 1))


def bound_fields(kind: str, s: float, rows) -> dict:
    """Reference values of a bound report's fields that have a closed form:
    the value, E, E*, the endpoint bounds A and B, chi2, |chi|^3, the total
    variation and the ratio range. f' is taken by mpmath's differentiation."""
    f = generator(kind, s)

    def df(x):
        return mp.diff(f, x)

    r, big_r = ratio_range(rows)
    return {
        "value": GENERATOR_VALUE[kind](s, rows),
        "linearized": _sum(rows, lambda a, b: (a - b) * df(a / b)),
        "linearized_mid": _sum(rows, lambda a, b: (a - b) * df((a + b) / (2 * b))),
        "endpoint_A": (big_r - r) * (df(big_r) - df(r)) / 4,
        "endpoint_B": ((big_r - 1) * f(r) + (1 - r) * f(big_r)) / (big_r - r),
        "chi2": classic("CHI2", rows),
        "abs_chi3": vajda(3.0, rows),
        "total_variation": classic("TOTAL_VARIATION", rows),
        "r": r,
        "R": big_r,
    }


def seven_chain(rows) -> list[mpf]:
    """tri/4, js, hel, 4d, j/8, ag, sym_chi2/16: nondecreasing (EQ183)."""
    return [classic("TRIANGULAR", rows) / 4, classic("JS", rows),
            classic("HELLINGER", rows), 4 * classic("D_NEW", rows),
            classic("J", rows) / 8, classic("AG", rows),
            classic("SYM_CHI2", rows) / 16]


def ratio_range(rows) -> tuple[mpf, mpf]:
    """(r, R), widened to include one as the program does."""
    ratios = [a / b for a, b, _ in rows]
    return min(min(ratios), mpf(1)), max(max(ratios), mpf(1))


def rel_err(value: float, ref) -> float:
    """Relative error of a float against an mpmath reference; inf when the
    value is not finite or the reference is zero and the value is not."""
    if value != value or value in (float("inf"), float("-inf")):
        return float("inf")
    if ref == 0:
        return 0.0 if value == 0 else float("inf")
    return float(abs((mpf(value) - ref) / ref))

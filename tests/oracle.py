"""High-precision reference oracle used to freeze expected test values.

Everything here is computed straight from the defining formulas with mpmath
at 50 significant digits. Nothing imports from :mod:`symdiv`, so these
routines stay independent of the code paths they are used to check.
"""

from mpmath import mp, mpf

mp.dps = 50


def _mp(value):
    """A float as its exact binary value (never through its decimal repr,
    which moves a near-diagonal pair); an mpf as it is."""
    return value if isinstance(value, mpf) else mpf(float(value))


def _pairs(p, q):
    assert len(p) == len(q)
    return [(_mp(a), _mp(b)) for a, b in zip(p, q)]


# ---------------------------------------------------------------------------
# classic measures, by direct summation
# ---------------------------------------------------------------------------

def kl(p, q):
    return sum(a * mp.log(a / b) for a, b in _pairs(p, q))


def j_divergence(p, q):
    return sum((a - b) * mp.log(a / b) for a, b in _pairs(p, q))


def js_divergence(p, q):
    total = mpf(0)
    for a, b in _pairs(p, q):
        m = (a + b) / 2
        total += a * mp.log(a / m) + b * mp.log(b / m)
    return total / 2


def ag_divergence(p, q):
    total = mpf(0)
    for a, b in _pairs(p, q):
        m = (a + b) / 2
        total += m * mp.log(m / mp.sqrt(a * b))
    return total


def bhattacharyya(p, q):
    return sum(mp.sqrt(a * b) for a, b in _pairs(p, q))


def hellinger(p, q):
    return sum((mp.sqrt(a) - mp.sqrt(b)) ** 2 for a, b in _pairs(p, q)) / 2


def harmonic(p, q):
    return sum(2 * a * b / (a + b) for a, b in _pairs(p, q))


def triangular(p, q):
    return sum((a - b) ** 2 / (a + b) for a, b in _pairs(p, q))


def chi2(p, q):
    return sum((a - b) ** 2 / b for a, b in _pairs(p, q))


def sym_chi2(p, q):
    return chi2(p, q) + chi2(q, p)


def total_variation(p, q):
    return sum(abs(a - b) for a, b in _pairs(p, q))


def d_new(p, q):
    total = sum(((mp.sqrt(a) + mp.sqrt(b)) / 2) * mp.sqrt((a + b) / 2)
                for a, b in _pairs(p, q))
    return 1 - total


def vajda(m, p, q):
    m = _mp(m)
    return sum(abs(a - b) ** m / b ** (m - 1) for a, b in _pairs(p, q))


def mixture(p, q):
    return [(_mp(a) + _mp(b)) / 2 for a, b in zip(p, q)]


# ---------------------------------------------------------------------------
# type-s families, generic branch only (callers keep s away from 0 and 1;
# at the limit points use kl/j/js/ag above). The unit mass is subtracted in
# each term, which is the program's definition and stays exact when the
# float weights do not sum to one exactly.
# ---------------------------------------------------------------------------

def phi_s(s, p, q):
    s = _mp(s)
    return sum(a ** s * b ** (1 - s) - s * a - (1 - s) * b
               for a, b in _pairs(p, q)) / (s * (s - 1))


def v_s(s, p, q):
    s = _mp(s)
    return sum(a ** s * b ** (1 - s) + a ** (1 - s) * b ** s - a - b
               for a, b in _pairs(p, q)) / (s * (s - 1))


def w_s(s, p, q):
    s = _mp(s)
    return sum(((a ** (1 - s) + b ** (1 - s)) / 2) * ((a + b) / 2) ** s - (a + b) / 2
               for a, b in _pairs(p, q)) / (s * (s - 1))


# ---------------------------------------------------------------------------
# generator functions; derivatives come from mpmath numerical
# differentiation of the order-0 form, never from analytic formulas
# ---------------------------------------------------------------------------

def phi_gen(s, x):
    s, x = _mp(s), _mp(x)
    if s in (0, 1):
        return (x - 1) * mp.log(x)
    return (x ** s + x ** (1 - s) - (1 + x)) / (s * (s - 1))


def psi_gen(s, x):
    s, x = _mp(s), _mp(x)
    if s == 0:
        return (x / 2) * mp.log(x) - ((x + 1) / 2) * mp.log((x + 1) / 2)
    if s == 1:
        return ((x + 1) / 2) * mp.log((x + 1) / (2 * mp.sqrt(x)))
    return (((x ** (1 - s) + 1) / 2) * ((x + 1) / 2) ** s
            - (x + 1) / 2) / (s * (s - 1))


def gen_derivative(gen, s, x, order):
    return mp.diff(lambda t: gen(s, t), _mp(x), order)


# first derivatives by hand, for sums over many entries, where mp.diff is slow;
# tests check each against gen_derivative before they use it

def phi_slope(s, x):
    """phi_gen' for s not in {0, 1}: (s x^(s-1) + (1-s) x^(-s) - 1)/(s (s-1))."""
    s, x = _mp(s), _mp(x)
    return (s * x ** (s - 1) + (1 - s) * x ** (-s) - 1) / (s * (s - 1))


def psi_slope(s, x):
    """psi_gen' for s not in {0, 1}, m = (x + 1)/2:
    ((1-s) x^(-s) m^s / 2 + s (x^(1-s) + 1) m^(s-1) / 4 - 1/2)/(s (s-1))."""
    s, x = _mp(s), _mp(x)
    m = (x + 1) / 2
    return ((1 - s) * x ** (-s) * m ** s / 2 + s * (x ** (1 - s) + 1) * m ** (s - 1) / 4
            - mpf(1) / 2) / (s * (s - 1))


# ---------------------------------------------------------------------------
# bound ingredients straight from their definitions
# ---------------------------------------------------------------------------

def linearized(gen, s, p, q):
    return sum((a - b) * gen_derivative(gen, s, a / b, 1)
               for a, b in _pairs(p, q))


def linearized_mid(gen, s, p, q):
    return sum((a - b) * gen_derivative(gen, s, (a + b) / (2 * b), 1)
               for a, b in _pairs(p, q))


def linearized_pair(slope, s, p, q):
    """(E, E*) from a first derivative ``slope`` (phi_slope or psi_slope)."""
    terms = [(a - b, a / b, (a + b) / (2 * b)) for a, b in _pairs(p, q)]
    return (sum(d * slope(s, x) for d, x, _ in terms),
            sum(d * slope(s, mid) for d, _, mid in terms))


def endpoint_a(gen, s, r, big_r):
    r, big_r = _mp(r), _mp(big_r)
    return (big_r - r) * (gen_derivative(gen, s, big_r, 1)
                          - gen_derivative(gen, s, r, 1)) / 4


def endpoint_b(gen, s, r, big_r):
    r, big_r = _mp(r), _mp(big_r)
    return ((big_r - 1) * gen(s, r) + (1 - r) * gen(s, big_r)) / (big_r - r)


def curvature_drop(gen, s, r, big_r):
    return (gen_derivative(gen, s, r, 2) - gen_derivative(gen, s, big_r, 2))


def _phi_stationary(s, x):
    # -x^(s+3) phi_s''''(x)
    return (2 - s) * (s - 3) * x ** (2 * s - 1) - (s + 1) * (s + 2)


def _psi_stationary(s, x):
    # G(x): x (x+1) H(x) d/dx log|psi_s'''(x)|, where
    # |psi_s'''(x)| = 2^(-s-1) (x+1)^(s-3) x^(-s-2) |H(x)| and
    # H(x) = (2-s) x^(s+2) + 3x + s + 1
    return ((2 - s) * (s - 3) * x ** (s + 3) - 12 * x ** 2
            - 8 * (s + 1) * x - (s + 1) * (s + 2))


def stationary_points(family, s, lo, hi, scan=200):
    """The roots of the stationary equation of f''' inside (lo, hi), for
    family "PHI" or "PSI" and mpf arguments. Sign changes on a geometric
    scan of [lo, hi] bracket the roots; findroot polishes them."""
    stationary = {"PHI": _phi_stationary, "PSI": _psi_stationary}[family]
    xs = [lo * (hi / lo) ** (mpf(k) / scan) for k in range(scan + 1)]
    signs = [mp.sign(stationary(s, x)) for x in xs]
    return [mp.findroot(lambda x: stationary(s, x), (xs[k], xs[k + 1]), solver="anderson")
            for k in range(scan) if signs[k] * signs[k + 1] < 0]


def third_sup(family, s, r, big_r, scan=200):
    """sup |f'''| over [r, R] for family "PHI" or "PSI", exactly: the
    largest |f'''| at r, at R and at each stationary point of f''' inside
    (r, R)."""
    gen = {"PHI": phi_gen, "PSI": psi_gen}[family]
    s, r, big_r = _mp(s), _mp(r), _mp(big_r)
    points = [r, big_r] + stationary_points(family, s, r, big_r, scan)
    return max(abs(gen_derivative(gen, s, x, 3)) for x in points)


def variation(gen, s, r, big_r):
    return (gen_derivative(gen, s, _mp(big_r), 1)
            - gen_derivative(gen, s, _mp(r), 1))


def log_power_mean(power, a, b, raised=False):
    power, a, b = _mp(power), _mp(a), _mp(b)
    if a == b:
        return a ** power if raised else a
    if power == -1:
        lpp = (mp.log(b) - mp.log(a)) / (b - a)
        return lpp if raised else 1 / lpp
    if power == 0:
        if raised:
            return mpf(1)
        return (b ** b / a ** a) ** (1 / (b - a)) / mp.e
    lpp = (b ** (power + 1) - a ** (power + 1)) / ((power + 1) * (b - a))
    return lpp if raised else lpp ** (1 / power)

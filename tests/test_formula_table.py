"""The formula table against 50-digit mpmath near P = Q and at large |s|.

Pairs p = q(1 + eps z) with sum(q z) = 0 and max |z| = 1 put every ratio
within eps of 1, where summands that cancel lose their digits; the orders
-800 and 1000 on (0.6, 0.4) against (0.4, 0.6) give values near 1e135 and
1e170 that overflow when the powers are taken one factor at a time.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

import oracle
from symdiv import (DomainError, GeneratorFamilyKind, MeasureKind, ag_js_divergence_type_s,
                    bound_report, classic_divergence, family_generator, generator_eval,
                    j_divergence_type_s, relative_information_type_s, validate_distribution)
from symdiv import families
from symdiv.verify import DEFAULT_GRID

EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
REL = 1e-12
Q = (0.1, 0.2, 0.3, 0.4)
Z = (1.0, 1.0, -1.0, 0.0)  # sum(q z) = 0
FAMILIES = {"V": (j_divergence_type_s, oracle.v_s), "W": (ag_js_divergence_type_s, oracle.w_s),
            "R": (relative_information_type_s, oracle.phi_s)}
# the families at their limit orders are classic measures
LIMITS = {("V", 0.0): lambda p, q: oracle.j_divergence(p, q),
          ("V", 1.0): lambda p, q: oracle.j_divergence(p, q),
          ("W", 0.0): lambda p, q: oracle.js_divergence(p, q),
          ("W", 1.0): lambda p, q: oracle.ag_divergence(p, q),
          ("R", 0.0): lambda p, q: oracle.kl(q, p),
          ("R", 1.0): lambda p, q: oracle.kl(p, q)}
CLASSIC = {MeasureKind.HELLINGER: oracle.hellinger,
           MeasureKind.BHATTACHARYYA: oracle.bhattacharyya, MeasureKind.TRIANGULAR: oracle.triangular, MeasureKind.HARMONIC: oracle.harmonic,
           MeasureKind.SYM_CHI2: oracle.sym_chi2, MeasureKind.CHI2: oracle.chi2,
           MeasureKind.KL: oracle.kl, MeasureKind.J: oracle.j_divergence,
           MeasureKind.JS: oracle.js_divergence, MeasureKind.AG: oracle.ag_divergence,
           MeasureKind.D_NEW: oracle.d_new, MeasureKind.TOTAL_VARIATION: oracle.total_variation}


def near_pair(eps):
    p = [q * (1.0 + eps * z) for q, z in zip(Q, Z)]
    return validate_distribution(p), validate_distribution(Q)


def rel_err(value, ref):
    return float(abs((mpf(value) - ref) / ref))


def kl_scale(p, q):
    return sum(abs(a * mp.log(a / b)) for a, b in zip(map(mpf, p), map(mpf, q)))


def defect_err(value, ref, scale):
    """The error of a measure defined with the weights' sum defect (KL is
    sum a log(a/b), D_NEW is 1 - sum affinity), relative to the size of its
    terms: near P = Q the defect is most of the value, and only a sum of
    the terms that carries it reaches it."""
    return float(abs(mpf(value) - ref) / scale)


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_families_near_the_diagonal(name, eps):
    p, q = near_pair(eps)
    pw, qw = p.as_tuple(), q.as_tuple()
    fn, ref = FAMILIES[name]
    for s in DEFAULT_GRID:
        got = fn(s, p, q)
        if name == "R" and s in (0.0, 1.0):  # KL, as defined
            a, b = (pw, qw) if s == 1.0 else (qw, pw)
            assert defect_err(got, LIMITS[name, s](pw, qw), kl_scale(a, b)) <= REL, s
            continue
        want = LIMITS[name, s](pw, qw) if (name, s) in LIMITS else ref(s, pw, qw)
        assert rel_err(got, want) <= REL, (name, s, rel_err(got, want))


@pytest.mark.parametrize("eps", EPS)
def test_classic_measures_near_the_diagonal(eps):
    p, q = near_pair(eps)
    pw, qw = p.as_tuple(), q.as_tuple()
    for kind, ref in CLASSIC.items():
        got, want = classic_divergence(kind, p, q), ref(pw, qw)
        if kind is MeasureKind.KL:
            assert defect_err(got, want, kl_scale(pw, qw)) <= REL
        elif kind is MeasureKind.D_NEW:
            assert defect_err(got, want, 1 - want) <= REL
        else:
            assert rel_err(got, want) <= REL, (kind, rel_err(got, want))


@pytest.mark.parametrize("s", [-800.0, 1000.0])
def test_families_at_large_orders(s):
    p, q = validate_distribution([0.6, 0.4]), validate_distribution([0.4, 0.6])
    for name, (fn, ref) in FAMILIES.items():
        got = fn(s, p, q)
        assert np.isfinite(got)
        assert rel_err(got, ref(s, p.as_tuple(), q.as_tuple())) <= REL, name
    assert j_divergence_type_s(1000.0, p, q) == pytest.approx(9.88060538063e169, rel=1e-11)


@pytest.mark.parametrize("family", list(GeneratorFamilyKind), ids=lambda f: f.value)
def test_generators_near_one(family):
    gen = oracle.phi_gen if family is GeneratorFamilyKind.PHI else oracle.psi_gen
    for s in DEFAULT_GRID:
        for eps in EPS:
            for x in (1.0 + eps, 1.0 - eps):
                for order in range(4):
                    want = gen(s, x) if order == 0 else oracle.gen_derivative(gen, s, x, order)
                    got = generator_eval(family, s, x, order)
                    assert rel_err(got, want) <= REL, (family.value, s, x, order)


# bound reports' value, E and E* near P = Q: on near pairs, and on a pair of near entries
# one block long and one more (E's reference takes a few seconds per order there)
REPORT_ORDERS = (-1.0, 0.5, 2.0)
REPORT_PAIRS = tuple(f"eps={eps:g}" for eps in (1e-2, 1e-4, 1e-6, 1e-8)) + ("block_pair(16385)",)
SLOPES = {GeneratorFamilyKind.PHI: (oracle.phi_gen, oracle.phi_slope, oracle.v_s),
          GeneratorFamilyKind.PSI: (oracle.psi_gen, oracle.psi_slope, oracle.w_s)}


@pytest.mark.parametrize("family", list(GeneratorFamilyKind), ids=lambda f: f.value)
def test_hand_slopes_equal_mpmath_derivatives(family):
    gen, slope, _ = SLOPES[family]
    for s in REPORT_ORDERS:
        for x in (1e-3, 0.5, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 1e3):
            want = oracle.gen_derivative(gen, s, x, 1)
            assert abs(slope(s, x) - want) <= mpf(10) ** -40 * abs(want), (s, x)


@pytest.mark.parametrize("s", REPORT_ORDERS)
@pytest.mark.parametrize("family", list(GeneratorFamilyKind), ids=lambda f: f.value)
def test_report_sums_near_one(family, s):
    for name in REPORT_PAIRS:
        p, q = named_pair(name)
        report = bound_report(family_generator(family, s), p, q)
        wants = reference(f"{family.value} report s={s!r}", name, p, q)
        for got, want in zip((report.value, report.linearized, report.linearized_mid), wants):
            assert rel_err(got, want) <= 1e-13, (p.dim, float(want), rel_err(got, want))


def test_error_at_the_window_edges(capsys):
    # just outside a limit window the generic formulas meet the poles of
    # 1/(s (s - 1)): the worst error against mpmath there is printed, and it
    # must stay inside C5's 1e-8
    p, q = near_pair(1e-2)
    pw, qw = p.as_tuple(), q.as_tuple()
    worst = 0.0
    for name, (fn, ref) in FAMILIES.items():
        for s0 in (0.0, 1.0):
            for s in (s0 - 1.00001e-5, s0 + 1.00001e-5):
                worst = max(worst, rel_err(fn(s, p, q), ref(s, pw, qw)))
    with capsys.disabled():
        print(f"\nworst relative error at s0 +- 1.00001e-5: {worst:.2e}")
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# a block wholly inside half of phi_k's series edge takes the series alone
# ---------------------------------------------------------------------------

# DEFAULT_GRID holds the kernels benchmark's s grid
ALONE_ORDERS = DEFAULT_GRID + (-1.00001e-5, 1.00001e-5, 1.0 - 1.00001e-5, 1.0 + 1.00001e-5,
                               -800.0, 1000.0)


def mirrored_pair(t, rng):
    """Entries at L = -t and +t (a/b = e^-t and e^t), each sum the same."""
    c = rng.uniform(0.5, 1.5, t.size)
    a, b = np.concatenate([c, c * np.exp(t)]), np.concatenate([c * np.exp(t), c])
    return validate_distribution(a / a.sum()), validate_distribution(b / a.sum())


# block pairs: sizes about one and two blocks of 16384 and of 32768 entries, and
# how many leading entries lie within eps of P = Q; fixed, so that the pairs do
# not follow _BLOCK
BLOCK_PAIR_SIZES, BLOCK_PAIR_NEAR = (3, 16383, 16385, 32767, 32769, 65539), 16384


def block_pair(n, eps=1e-7):
    """n entries whose first BLOCK_PAIR_NEAR are within eps of P = Q; the rest
    mix such entries with generic ones (a/b up to 4), in mirrored pairs. Each
    n draws from its own generator."""
    rng = np.random.default_rng([1414, n])
    generic = max(n - BLOCK_PAIR_NEAR, 0) // 4
    q = rng.uniform(0.5, 1.5, n - 2 * generic)
    z = rng.uniform(-1.0, 1.0, q.size)
    z -= (q * z).sum() / q.sum()  # sum(q z) = 0
    near = q * (1.0 + eps * z / np.abs(z).max())
    c, ratio = rng.uniform(0.5, 1.5, generic), np.exp(rng.uniform(-1.4, 1.4, generic))
    cut = min(n, BLOCK_PAIR_NEAR)
    a = np.concatenate([near[:cut], c, c * ratio, near[cut:]])
    b = np.concatenate([q[:cut], c * ratio, c, q[cut:]])
    return validate_distribution(a / b.sum()), validate_distribution(b / b.sum())


def named_pair(name):
    """A near pair by name: ``eps=...`` (``near_pair``) or ``block_pair(16385)``."""
    return block_pair(16385) if name == "block_pair(16385)" else near_pair(float(name[4:]))


# mpmath references of the slowest near-diagonal checks, written with tests/oracle.py by
# ``PYTHONPATH=src python tests/near_references.py``: per check and pair, the digest of
# the pair's weights and the 30-digit references, which must be rewritten if a pair moves
REFERENCES = Path(__file__).parent / "data" / "near_references.json"


def weights_digest(p, q) -> str:
    return hashlib.sha256(p.weights.tobytes() + q.weights.tobytes()).hexdigest()[:20]


@functools.cache
def _references() -> dict:
    return json.loads(REFERENCES.read_text())


def reference(check: str, name: str, p, q):
    """The stored references of ``check`` on the named pair (p, q), as mpf."""
    entry = _references()[check][name]
    assert entry["weights"] == weights_digest(p, q), (check, name)
    values = entry["values"]
    return {k: mpf(v) for k, v in values.items()} if isinstance(values, dict) else \
        [mpf(v) for v in values]


def shortcut_cases():
    """(pair, orders): near pairs at every order, at eps 1e-2 .. 1e-12,
    and the block pairs; and per order, pairs whose |L|
    reach 0.4 .. 1.1 of the edge of each phi_k the order takes: R's (k = s
    or 1 - s), W's and PSI's at the midpoints (L about half of log(a/b)),
    and E*'s at (a + b)/2b (a quarter)."""
    rng = np.random.default_rng(1414)
    cases = [(near_pair(eps), ALONE_ORDERS) for eps in EPS + (1e-11, 1e-12)]
    cases += [(block_pair(n), ALONE_ORDERS) for n in BLOCK_PAIR_SIZES]
    for s in ALONE_ORDERS:
        for k, scale in ((s if s <= 0.5 else 1.0 - s, 1.0), (s, 2.0), (s, 4.0)):
            edge = families._SERIES_EDGE / max(abs(k - 1.0), 0.5)
            for reach in (0.4, 0.5, 0.9, 0.999, 1.0, 1.1):
                t = reach * scale * edge * np.linspace(0.25, 1.0, 4)
                cases.append((mirrored_pair(t, rng), (s,)))
    return cases


def family_outputs(cases):
    """V, W, R, PHI's and PSI's orders 0-3 at the pair's ratios and their bound
    reports (or refusals), each float as its bytes."""
    def report(kind, s, p, q):
        try:
            return {k: np.float64(v).tobytes() if isinstance(v, float) else v
                    for k, v in vars(bound_report(family_generator(kind, s), p, q)).items()}
        except DomainError as err:
            return str(err)
    out = []
    for (p, q), orders in cases:
        x = p.weights / q.weights
        for s in orders:
            out.append((s, p.dim, [np.float64(fn(s, p, q)).tobytes() for fn in
                                   (j_divergence_type_s, ag_js_divergence_type_s,
                                    relative_information_type_s)]))
            for kind in GeneratorFamilyKind:
                out.append((s, p.dim, kind, [generator_eval(kind, s, x, order).tobytes()
                                             for order in range(4)], report(kind, s, p, q)))
    return out


def test_series_alone_keeps_the_masked_bits(monkeypatch):
    cases = shortcut_cases()
    taken = []
    alone = families._alone
    monkeypatch.setattr(families, "_alone", lambda k, L: taken.append(alone(k, L)) or taken[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # -800 and 1000 overflow far out
        fast = family_outputs(cases)
        assert sum(series is not None for series in taken) > 1000
        monkeypatch.setattr(families, "_ALONE", -1.0)  # no block passes: each takes the mask
        taken.clear()
        masked = family_outputs(cases)
    assert all(series is None for series in taken)
    assert len(fast) == len(masked)
    for one, other in zip(fast, masked):
        assert one == other, one[:3]


def test_near_diagonal_blocks_skip_the_direct_value(monkeypatch):
    p, q = near_pair(1e-6)
    want = [fn(0.5, p, q) for fn in (relative_information_type_s, ag_js_divergence_type_s)]
    calls = []
    e, expm1 = families._e, np.expm1
    monkeypatch.setattr(families, "_e", lambda *args: calls.append("_e") or e(*args))
    monkeypatch.setattr(np, "expm1", lambda *args, **kw: calls.append("expm1") or expm1(*args, **kw))
    assert relative_information_type_s(0.5, p, q) == want[0]
    assert ag_js_divergence_type_s(0.5, p, q) == want[1]
    assert calls == []
    monkeypatch.setattr(families, "_ALONE", -1.0)  # the spies see the masked path
    relative_information_type_s(0.5, p, q)
    assert calls[:2] == ["expm1", "_e"]
    calls.clear()
    monkeypatch.setattr(families, "_DELTA_EDGE", -1.0)  # and W's phi_s, not its delta series
    ag_js_divergence_type_s(0.5, p, q)
    assert calls.count("_e") == 2


# ---------------------------------------------------------------------------
# W's series in delta = (a - b)/(a + b) near P = Q
# ---------------------------------------------------------------------------

# the kernels benchmark's orders, the window edges and large orders, whose series edges
# fall short of the wider near pairs
W_ORDERS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -1.00001e-5, 1.00001e-5,
            1.0 - 1.00001e-5, 1.0 + 1.00001e-5, -50.0, 50.0, -800.0, 1000.0)
KERNELS_GENERAL = (-2.0, -1.0, -0.5, 0.5, 1.5, 2.0, 3.0)  # its orders other than JS's and AG's
KERNELS_EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


def kernels_like_pair(eps, repeat=4096):
    """p = q (1 + eps z) on 8 Dirichlet atoms, sum(q z) = 0 and max |z| = 1, each atom
    spread over ``repeat`` entries and scattered, as the kernels benchmark's near pairs."""
    rng = np.random.default_rng(20050128)
    q = rng.dirichlet(np.ones(8))
    z = rng.standard_normal(8)
    z -= (q * z).sum()
    z /= np.abs(z).max()
    order = rng.permutation(8 * repeat)
    return tuple(validate_distribution(np.repeat(w / repeat, repeat)[order])
                 for w in (q * (1.0 + eps * z), q))


W_PAIRS = tuple(f"eps={eps:g}" for eps in EPS) + ("block_pair(16385)",)


@pytest.mark.parametrize("pair", W_PAIRS)
def test_w_near_the_diagonal_against_mpmath(pair):
    p, q = named_pair(pair)
    wants = reference("W", pair, p, q)
    for s in W_ORDERS:
        assert rel_err(ag_js_divergence_type_s(s, p, q), wants[repr(s)]) <= 1e-13, s


def test_kernels_like_near_pairs_take_the_series_at_every_general_order(monkeypatch):
    taken, general = [], []
    series, w_term = families._series, families._w_term
    monkeypatch.setattr(families, "_series", lambda c, x, last=None: taken.append(
        last is not None) or series(c, x, last))
    monkeypatch.setattr(families, "_w_term", lambda *args: general.append(args[0]) or w_term(*args))
    blocks = 0
    for eps in KERNELS_EPS:
        p, q = kernels_like_pair(eps)
        blocks += -(-p.dim // families._BLOCK)
        for s in KERNELS_GENERAL:
            ag_js_divergence_type_s(s, p, q)
    assert sum(taken) == len(taken) == blocks * len(KERNELS_GENERAL) and general == []


def test_w_grid_rows_keep_their_bits_alone_near_the_diagonal():
    # a grid over all of W_ORDERS mixes orders whose edge holds a pair with orders beyond
    # it (the large ones on the wider pairs) and JS's and AG's rows; block_pair(32769)'s
    # second block is generic. A sweep's stack of several pairs gives each pair its bits
    # alone, whether or not the pairs beside it are near
    from symdiv.verify import _grids, _stack
    pairs = [near_pair(eps) for eps in EPS] + [block_pair(16385), block_pair(32769)]
    pairs += [kernels_like_pair(eps, repeat=64) for eps in KERNELS_EPS]
    column = families._column(W_ORDERS, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # -800 and 1000 overflow far out
        for p, q in pairs:
            rows = families._w_values(column, p.weights, q.weights, pair=(p, q))
            alone = [ag_js_divergence_type_s(s, p, q) for s in W_ORDERS]
            assert rows.tobytes() == np.array(alone).tobytes(), p.dim
        far = tuple(validate_distribution(w) for w in ([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]))
        stacked = [far, *[near_pair(eps) for eps in EPS], far]
        values = _stack(stacked, _grids(W_ORDERS, ())).family("W", W_ORDERS)
        alone = [[ag_js_divergence_type_s(s, p, q) for p, q in stacked] for s in W_ORDERS]
    assert values.tobytes() == np.array(alone).tobytes()

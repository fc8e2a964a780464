import collections
import json
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

import oracle
from conftest import assert_close, run_in_threads, sampled_pairs
from symdiv import (Curvature, DomainError, Generator, GeneratorFamilyKind, InputError,
                    MeasureKind, RatioBounds, SweepConfig, ag_js_divergence_type_s, bound_report,
                    classic_divergence, compare_generators, csiszar_divergence, curvature_ratio,
                    endpoint_bounds, family_generator, generator_eval, j_divergence_type_s,
                    linearized_functionals, mixture, ratio_bounds, relative_information_type_s,
                    run_sweep, smoothness_bounds, vajda_abs_chi, validate_distribution)
import symdiv.csiszar as csiszar
import symdiv.families as families
from symdiv.csiszar import _family_generator, _psi_stationary
from symdiv.families import _BLOCK, _column, _family_eval, _formed
from symdiv.means import raised_mean
from symdiv.verify import DEFAULT_GRID, _grids, _stack, _Stack, pair_for

PHI, PSI = GeneratorFamilyKind.PHI, GeneratorFamilyKind.PSI
PAIRS = sampled_pairs(per_dim=10)
S_GRID = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]


def blend(p, q, weight):
    return validate_distribution(weight * p.weights + (1 - weight) * q.weights)


# ---------------------------------------------------------------------------
# closed-form specializations used as independent checks (distribution
# domain, no generator evaluations)
# ---------------------------------------------------------------------------

def e_v_closed(s, p, q):
    a, b = p.weights, q.weights
    if s in (0.0, 1.0):
        return (classic_divergence(MeasureKind.J, p, q)
                + classic_divergence(MeasureKind.CHI2, q, p))
    return float(((a - b) * ((a / b) ** (s - 1) / (s - 1)
                             - (a / b) ** -s / s)).sum())


def estar_v_closed(s, p, q):
    a, b = p.weights, q.weights
    if s in (0.0, 1.0):
        m = mixture(p, q)
        return (classic_divergence(MeasureKind.TRIANGULAR, p, q)
                + 2 * classic_divergence(MeasureKind.J, m, q))
    y = (a + b) / (2 * b)
    return float(((a - b) * (y ** (s - 1) / (s - 1) - y ** -s / s)).sum())


def e_w_closed(s, p, q):
    a, b = p.weights, q.weights
    m = mixture(p, q)
    if s == 0.0:
        return classic_divergence(MeasureKind.J, m, p)
    if s == 1.0:
        return ((classic_divergence(MeasureKind.CHI2, q, p)
                 - classic_divergence(MeasureKind.J, p, q)) / 4
                + classic_divergence(MeasureKind.J, m, q))
    inner = ((a ** (1 - s) + b ** (1 - s)) / 2) * ((a + b) / 2) ** (s - 1) / (s - 1) \
        - ((a + b) / (2 * a)) ** s / s
    return float(((a - b) * inner).sum() / 2)


def estar_w_closed(s, p, q):
    # the generic form needs the mixture ratio (p+3q)/(p+q) in its last
    # term; with (p+3q)/(2q) there the formula fails its own limit cases
    a, b = p.weights, q.weights
    quarter = validate_distribution((a + 3 * b) / 4)
    m = mixture(p, q)
    if s == 0.0:
        return 2 * classic_divergence(MeasureKind.J, m, quarter)
    if s == 1.0:
        return (classic_divergence(MeasureKind.TRIANGULAR, p, q) / 4
                - classic_divergence(MeasureKind.J, m, q) / 2
                + 2 * classic_divergence(MeasureKind.J, quarter, q))
    u = (a + 3 * b) / (a + b)
    w = (a + 3 * b) / (2 * b)
    inner = (u ** (s - 1) + w ** (s - 1)) / (s - 1) - u ** s / s
    return 0.5 ** (s + 1) * float(((a - b) * inner).sum())


def a_v_means(s, r, R):
    return (R - r) ** 2 / 4 * (raised_mean(s - 2, r, R) + raised_mean(-s - 1, r, R))


def a_w_means(s, r, R):
    vr, vR = (r + 1) / (2 * r), (R + 1) / (2 * R)
    return (R - r) ** 2 / 16 * (
        raised_mean(s - 1, vr, vR) / (r * R)
        - raised_mean(s - 2, vr, vR) / (2 * r * R)
        + raised_mean(s - 2, (r + 1) / 2, (R + 1) / 2) / 2)


def delta_v_means(s, r, R):
    return (R - r) * ((2 - s) * raised_mean(s - 3, r, R)
                      + (1 + s) * raised_mean(-s - 2, r, R))


class TestDivergenceValues:
    def test_family_generators_reproduce_family_measures(self, pair):
        p, q = pair
        assert csiszar_divergence(family_generator(PHI, 1), p, q) == pytest.approx(
            0.162186043243266, rel=1e-12)
        assert csiszar_divergence(family_generator(PSI, 0), p, q) == pytest.approx(
            0.020135513550689, rel=1e-12)

    def test_zero_at_equal_arguments(self):
        p = validate_distribution([0.25, 0.25, 0.5])
        for family in (PHI, PSI):
            for s in (-1, 0, 0.5, 1, 2):
                assert csiszar_divergence(family_generator(family, s), p, p) == \
                    pytest.approx(0.0, abs=1e-15)

    def test_nonnegative_on_sampled_pairs(self):
        for p, q in PAIRS[:20]:
            for s in (-2, 0.5, 3):
                assert csiszar_divergence(family_generator(PHI, s), p, q) >= 0
                assert csiszar_divergence(family_generator(PSI, s), p, q) >= 0

    @pytest.mark.parametrize("kind", [PHI, PSI])
    def test_family_generators_take_the_report_sums(self, kind):
        # csiszar_divergence and linearized_functionals sum a report's summands: a family
        # generator's divergence has the bits of its family function, its (E, E*) the report's
        from test_formula_table import block_pair
        family = j_divergence_type_s if kind is PHI else ag_js_divergence_type_s
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            gen = family_generator(kind, s)
            for p, q in PAIRS[::8] + [block_pair(_BLOCK + 1)]:
                report = bound_report(gen, p, q)
                assert csiszar_divergence(gen, p, q) == family(s, p, q) == report.value, s
                assert linearized_functionals(gen, p, q) == \
                    (report.linearized, report.linearized_mid), s


class TestLinearizedFunctionals:
    def test_canonical_values(self, pair):
        e, e_star = linearized_functionals(family_generator(PHI, 1), *pair)
        assert e == pytest.approx(0.32885270991, rel=1e-10)
        assert e_star == pytest.approx(0.161093021622, rel=1e-10)

    def test_zero_at_equal_arguments(self):
        p = validate_distribution([0.3, 0.7])
        assert linearized_functionals(family_generator(PHI, 1), p, p) == (0.0, 0.0)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
    def test_phi_family_closed_forms(self, s, pair, pair3):
        gen = family_generator(PHI, s)
        for p, q in (pair, pair3, PAIRS[7], PAIRS[33]):
            e, e_star = linearized_functionals(gen, p, q)
            assert_close(e, e_v_closed(s, p, q), 1e-10, f"E_V s={s}")
            assert_close(e_star, estar_v_closed(s, p, q), 1e-10, f"E*_V s={s}")

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
    def test_psi_family_closed_forms(self, s, pair, pair3):
        gen = family_generator(PSI, s)
        for p, q in (pair, pair3, PAIRS[7], PAIRS[33]):
            e, e_star = linearized_functionals(gen, p, q)
            assert_close(e, e_w_closed(s, p, q), 1e-10, f"E_W s={s}")
            assert_close(e_star, estar_w_closed(s, p, q), 1e-10, f"E*_W s={s}")

    def test_psi_frozen_oracle_values(self, pair):
        # mpmath oracle, 50 digits, from the defining sums
        expected = {0.5: (0.0410326119149, 0.0201278030248),
                    2.0: (0.0434027777778, 0.0204166666667)}
        for s, (e_want, estar_want) in expected.items():
            e, e_star = linearized_functionals(family_generator(PSI, s), *pair)
            assert e == pytest.approx(e_want, rel=1e-10)
            assert e_star == pytest.approx(estar_want, rel=1e-10)


class TestEndpointBounds:
    def test_canonical_values(self, pair):
        rb = ratio_bounds(*pair)
        a, b = endpoint_bounds(family_generator(PHI, 1), rb)
        assert a == pytest.approx(0.342554906156, rel=1e-10)
        assert b == pytest.approx(0.162186043243, rel=1e-10)

    def test_limit_order_matches_log_mean_form(self, pair):
        rb = ratio_bounds(*pair)
        _, b = endpoint_bounds(family_generator(PHI, 0), rb)
        r, R = rb.r, rb.R
        expected = (1 - r) * (R - 1) * raised_mean(-1, r, R)
        assert b == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("s", S_GRID)
    def test_a_matches_mean_closed_forms(self, s):
        for p, q in PAIRS[:12]:
            rb = ratio_bounds(p, q)
            if rb.degenerate:
                continue
            a_phi, _ = endpoint_bounds(family_generator(PHI, s), rb)
            a_psi, _ = endpoint_bounds(family_generator(PSI, s), rb)
            assert_close(a_phi, a_v_means(s, rb.r, rb.R), 1e-10, f"A_V s={s}")
            assert_close(a_psi, a_w_means(s, rb.r, rb.R), 1e-10, f"A_W s={s}")

    def test_rejects_degenerate(self):
        p = validate_distribution([0.5, 0.5])
        with pytest.raises(DomainError) as err:
            endpoint_bounds(family_generator(PHI, 1), ratio_bounds(p, p))
        assert err.value.code == "DEGENERATE_BOUNDS"


class TestSmoothnessBounds:
    def test_canonical_values(self, pair):
        rb = ratio_bounds(*pair)
        delta, f3, variation = smoothness_bounds(family_generator(PHI, 1), rb)
        assert delta == pytest.approx(2.63888888889, rel=1e-10)
        assert f3 == pytest.approx(9.0, rel=1e-10)
        assert variation == pytest.approx(1.64426354955, rel=1e-10)

    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
    def test_closed_forms_inside_smoothness_range(self, s):
        for p, q in PAIRS[:12]:
            rb = ratio_bounds(p, q)
            if rb.degenerate:
                continue
            r, R = rb.r, rb.R
            delta_phi, f3_phi, _ = smoothness_bounds(family_generator(PHI, s), rb)
            assert_close(delta_phi, delta_v_means(s, r, R), 1e-10, f"delta_V s={s}")
            assert_close(f3_phi, (2 - s) * r ** (s - 3) + (s + 1) * r ** (-s - 2),
                         1e-10, f"f3_V s={s}")
            delta_psi, f3_psi, _ = smoothness_bounds(family_generator(PSI, s), rb)
            psi2 = lambda x: ((x ** (-s - 1) + 1) / 8) * ((x + 1) / 2) ** (s - 2)
            assert_close(delta_psi, psi2(r) - psi2(R), 1e-10, f"delta_W s={s}")
            sup = (((r + 1) / 2) ** s / (2 * (r + 1) ** 3)) * (
                3 * r ** (-s - 1) + (s + 1) * r ** (-s - 2) + (2 - s))
            assert_close(f3_psi, sup, 1e-10, f"f3_W s={s}")

    # psi_s''' has an interior maximum on [0.096, 1.904] at s = -1.5 and -1.2
    @pytest.mark.parametrize("s", [-5.0, -3.0, -2.5, -2.0, -1.5, -1.2,
                                   2.2, 2.5, 3.0, 4.0, 6.0, 10.0])
    def test_outside_range_grid_max_matches_oracle(self, s, pair):
        near_edge = (validate_distribution([0.048, 0.952]), validate_distribution([0.5, 0.5]))
        for p, q in (pair, near_edge):
            rb = ratio_bounds(p, q)
            for family in (PHI, PSI):
                delta, f3, _ = smoothness_bounds(family_generator(family, s), rb)
                assert delta is None  # curvature not monotonic out here
                expected = float(oracle.third_sup(family.value, s, rb.r, rb.R))
                assert f3 == pytest.approx(expected, rel=1e-12), f"{family.value} sup s={s}"
        if s in (-1.5, -1.2):
            rb = ratio_bounds(*near_edge)
            _, f3, _ = smoothness_bounds(family_generator(PSI, s), rb)
            ends = np.abs(generator_eval(PSI, s, np.array([rb.r, rb.R]), 3)).max()
            assert f3 > ends * (1.0 + 1e-5)

    @given(s=st.one_of(st.floats(-6.0, -1.0, exclude_max=True),
                       st.floats(2.0, 10.0, exclude_min=True)),
           seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3, 5, 10]),
           index=st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_sup_bounds_every_grid_point(self, s, seed, dim, index):
        rb = ratio_bounds(*pair_for(seed, dim, index))
        xs = np.geomspace(rb.r, rb.R, 4001)
        for family in (PHI, PSI):
            _, f3, _ = smoothness_bounds(family_generator(family, s), rb)
            grid = np.abs(generator_eval(family, s, xs, 3)).max()
            assert f3 >= grid * (1.0 - 1e-15), f"{family.value} s={s}"

    def test_variation_is_four_a_over_spread(self):
        for p, q in PAIRS[:12]:
            rb = ratio_bounds(p, q)
            if rb.degenerate:
                continue
            gen = family_generator(PSI, 0.5)
            a, _ = endpoint_bounds(gen, rb)
            _, _, variation = smoothness_bounds(gen, rb)
            assert_close(variation, 4 * a / (rb.R - rb.r), 1e-12, "variation")


class TestBoundReport:
    def test_invariants_hold_across_grid(self):
        for p, q in PAIRS[:15]:
            for family in (PHI, PSI):
                for s in S_GRID:
                    rep = bound_report(family_generator(family, s), p, q)
                    tol = lambda x: 1e-10 * max(1.0, abs(x))
                    assert rep.value >= -tol(rep.value)
                    assert rep.value <= rep.linearized + tol(rep.linearized)
                    assert rep.linearized <= rep.endpoint_A + tol(rep.endpoint_A)
                    assert rep.value <= rep.endpoint_B + tol(rep.endpoint_B)
                    assert rep.endpoint_B <= rep.endpoint_A + tol(rep.endpoint_A)
                    assert abs(rep.value - rep.linearized / 2) <= \
                        rep.half_E_bound + tol(rep.half_E_bound)
                    assert abs(rep.value - rep.linearized_mid) <= \
                        rep.E_star_bound + tol(rep.E_star_bound)
                    assert_close(rep.variation, 4 * rep.endpoint_A / (rep.ratio_bounds.R - rep.ratio_bounds.r),
                                 1e-12, "variation identity")

    def test_canonical_report(self, pair):
        rep = bound_report(family_generator(PHI, 1), *pair)
        assert rep.value == pytest.approx(0.162186043243, rel=1e-10)
        assert rep.endpoint_B == pytest.approx(0.162186043243, rel=1e-10)
        rep_psi = bound_report(family_generator(PSI, 1), *pair)
        assert rep_psi.value == pytest.approx(0.0204109972601, rel=1e-10)

    def test_degenerate_pair_reports_absent_bounds(self):
        p = validate_distribution([0.5, 0.5])
        rep = bound_report(family_generator(PHI, 1), p, p)
        assert rep.value == 0.0
        assert rep.ratio_bounds.degenerate
        for field in ("endpoint_A", "endpoint_B", "delta", "f3_sup",
                      "variation", "half_E_bound", "E_star_bound"):
            assert getattr(rep, field) is None
        payload = rep.to_json_dict()
        assert "endpoint_A" not in payload and "value" in payload

    def test_two_point_pairs_make_chord_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a, b = rng.uniform(0.05, 0.95, size=2)
            if abs(a - b) < 1e-3:
                continue
            p = validate_distribution([a, 1 - a])
            q = validate_distribution([b, 1 - b])
            for family in (PHI, PSI):
                for s in (-1, 0, 0.5, 1, 2):
                    rep = bound_report(family_generator(family, s), p, q)
                    assert_close(rep.value, rep.endpoint_B, 1e-12,
                                 f"{family.value} s={s}")

    @pytest.mark.parametrize("kind", [PHI, PSI])
    def test_reports_sum_the_family_summands(self, kind):
        # a family generator's report is stage two of its family's sum (terms): its value has
        # the bits of V_s or W_s, for one pair and in a sweep's grid report, and it refuses
        # where a plain Generator over the same evaluate (the generic path: f and f' at a/b,
        # one order at a time) refuses, alike; in one block, across blocks, near P = Q and
        # on the frozen pairs (at six orders). The stack that check_bounds_suite builds for a
        # pair has the bits of its reports
        from test_formula_table import block_pair
        from test_frozen_bits import grid_cases, shortcut_cases
        orders = DEFAULT_GRID + (1e-6, -1e-6, 1.0 + 1e-6, 1.0 - 1e-6, -800.0, 1000.0)
        rng = np.random.default_rng(23)
        pairs = [tuple(validate_distribution(w / w.sum()) for w in rng.exponential(size=(2, n)))
                 for n in (3, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 3)]
        pairs.append((blend(*pairs[0], 1e-6), pairs[0][1]))
        frozen = [pair for pair, _ in grid_cases() + shortcut_cases()] + [block_pair(_BLOCK + 1)]
        family = j_divergence_type_s if kind is PHI else ag_js_divergence_type_s
        plain = lambda gen: Generator(gen.name, gen.evaluate, gen.max_order,
                                      gen.curvature_monotonicity, gen.third_sup_closed_form)

        def outcome(call):
            try:
                return vars(call())
            except DomainError as err:
                return str(err)
        grid, refused = [], 0
        with np.errstate(over="ignore", invalid="ignore"):  # -800 and 1000 overflow
            for s in orders:
                gen = family_generator(kind, s)  # also where f'' overflows to +inf
                assert gen.terms is not None and plain(gen).terms is None
                at = pairs + frozen * (s in (-1.0, 0.0, 0.5, 1.0, 2.0, 1000.0))
                reports = [outcome(lambda: bound_report(gen, p, q)) for p, q in at]
                for (p, q), report in zip(at, reports):
                    if isinstance(report, str):
                        assert report == outcome(lambda: bound_report(plain(gen), p, q)), s
                        refused += 1
                    else:
                        assert report["value"] == family(s, p, q), (s, p.dim)
                        assert isinstance(outcome(lambda: bound_report(plain(gen), p, q)), dict)
                if not any(isinstance(report, str) for report in reports[:len(pairs)]):
                    grid.append(s)  # -800 and 1000 overflow on these pairs: refused alike
            # a sweep over pairs of several dims: each grid report row is V's or W's row
            stack = _Stack([(p.weights[None], q.weights[None]) for p, q in pairs + frozen[:14]],
                           _grids(orders, (), (kind,)))
            values = stack.report(kind, orders).value
            assert values.shape == (len(orders), len(pairs) + 14)
            assert values.tobytes() == stack.family("V" if kind is PHI else "W", orders).tobytes()
        assert refused
        compared = 0
        for p, q in pairs:
            engine = _stack([(p, q)], _grids(grid, (), (kind,))).report(kind, tuple(grid))
            for row, s in enumerate(grid):
                for name, one in vars(bound_report(family_generator(kind, s), p, q)).items():
                    if name in ("generator", "ratio_bounds") or one is None:
                        continue  # delta is None where f'' is not known monotone
                    stacked = getattr(engine, name)
                    assert one == float(stacked[row, 0] if stacked.ndim == 2 else stacked[0]), \
                        (s, p.dim, name)
                    compared += 1
        assert compared > 500

    def test_json_field_names(self, pair):
        rep = bound_report(family_generator(PSI, 0.5), *pair)
        payload = rep.to_json_dict()
        assert set(payload) == {
            "generator", "value", "linearized", "linearized_mid", "endpoint_A",
            "endpoint_B", "delta", "f3_sup", "variation", "chi2", "abs_chi3",
            "total_variation", "half_E_bound", "E_star_bound", "ratio_bounds"}
        assert json.dumps(payload)  # serializable as-is


def report_bits(report):
    """A report's fields, each float as its bits (hex), ratio_bounds as (r, R)."""
    return {name: (value.hex() if isinstance(value, float) else
                   (value.r.hex(), value.R.hex()) if isinstance(value, RatioBounds) else value)
            for name, value in vars(report).items()}


def random_pair(rng, n):
    return tuple(validate_distribution(w / w.sum()) for w in rng.exponential(size=(2, n)))


def alternating_report_failures(steps: int) -> list:
    """Four threads (more than cores) make ``steps`` reports each on two pairs and both
    generators, in opposite turns by twos: the (thread, step)s unequal to serial reports."""
    rng = np.random.default_rng(43)
    pairs = [random_pair(rng, 7), random_pair(rng, 3000)]
    gens = [family_generator(kind, 0.5) for kind in (PHI, PSI)]
    serial = {(i, j): report_bits(bound_report(gen, *pair))
              for i, pair in enumerate(pairs) for j, gen in enumerate(gens)}
    failures = []

    def work(first):
        for step in range(steps):
            i, j = (first + step) % 2, step // 2 % 2
            if report_bits(bound_report(gens[j], *pairs[i])) != serial[i, j]:
                failures.append((first, step))
    run_in_threads(work, (0, 1, 0, 1))
    return failures


class TestWarningFilters:
    def test_threads_leave_the_warning_filters_as_they_were(self):
        # catch_warnings swaps the process-wide filter list: symdiv's swaps, interleaved
        # across threads, used to leave an "ignore RuntimeWarning" filter behind
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            before = list(warnings.filters)
            failures = alternating_report_failures(steps=200)
            after = list(warnings.filters)
        assert after == before
        assert failures == []


class TestSpread:
    # a pair's chi^2, |chi|^3, TV and ratio range are computed once and
    # shared by its reports through a one-pair memo (``csiszar._spread``)

    def test_memo_is_keyed_on_the_ordered_pair(self):
        rng = np.random.default_rng(41)
        a, b = random_pair(rng, 5), random_pair(rng, _BLOCK + 1)
        twin = (validate_distribution(a[0].weights), a[1])  # A's weights, another object
        steps = [a, b, a, a, (a[1], a[0]), twin]
        gens = [family_generator(kind, s) for kind in (PHI, PSI) for s in (-1.5, 0.5, 3.0)]
        csiszar._spread.cache_clear()
        for p, q in steps:
            for gen in gens:
                shared = report_bits(bound_report(gen, p, q))
                assert csiszar._spread.cache_info().currsize <= 1
                csiszar._spread.cache_clear()
                assert shared == report_bits(bound_report(gen, p, q)), (p.dim, gen.name)
        hits = csiszar._spread.cache_info().hits
        bound_report(gens[0], *a)
        bound_report(gens[1], *a)  # the second report on A takes the first one's spread
        assert csiszar._spread.cache_info().hits == hits + 1

    def test_threads_alternating_pairs_equal_serial_reports(self):
        assert alternating_report_failures(steps=100) == []
        assert csiszar._spread.cache_info().currsize <= 1

    @pytest.mark.parametrize("n", [2, 5, _BLOCK, _BLOCK + 1, 4 * _BLOCK])
    def test_report_spread_equals_the_public_functions(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            p, q = random_pair(rng, n)
            rep, rb = bound_report(family_generator(PSI, 0.5), p, q), ratio_bounds(p, q)
            got = [rep.chi2, rep.abs_chi3, rep.total_variation,
                   rep.ratio_bounds.r, rep.ratio_bounds.R]
            want = [*(vajda_abs_chi(m, p, q) for m in (2, 3, 1)), rb.r, rb.R]
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_an_overflowing_cubic_chi_is_reported_without_a_warning(self):
        # |d|^3 / q^2 divides by q^2 = 1e-600, which underflows to 0: the
        # spread is computed under the report's warning filter, like its sums
        p, q = validate_distribution([0.5, 0.5]), validate_distribution([1e-300, 1.0])
        csiszar._spread.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = bound_report(family_generator(PHI, 0.5), p, q)
        assert rep.abs_chi3 == np.inf
        assert all(np.isfinite(v) for name, v in vars(rep).items()
                   if name not in ("generator", "abs_chi3", "ratio_bounds"))

    def test_equal_pair_report_stays_degenerate(self, pair):
        p = validate_distribution([0.2, 0.3, 0.5])
        want = csiszar.BoundReport("PHI(s=1)", 0.0, 0.0, 0.0, None, None, None, None, None,
                                   0.0, 0.0, 0.0, None, None, RatioBounds(1.0, 1.0))
        gen = family_generator(PHI, 1)
        bound_report(gen, *pair)  # another pair's spread in the memo first
        for q in (p, p, validate_distribution(p.weights)):  # a miss, a hit, another object
            assert report_bits(bound_report(gen, p, q)) == report_bits(want)


class TestReportTable:
    # consecutive reports of a family generator on a pair share stage one of their sums,
    # the rows that do not depend on the order, through the family sums' one-slot memo
    # (``families._memo``); the kernels workload's orders, large |s| and orders by 0 and 1
    ORDERS = (*S_GRID, -800.0, 1000.0, 1e-6, -1e-6, 1.0 + 1e-6, 1.0 - 1e-6)
    FAMILIES = (j_divergence_type_s, ag_js_divergence_type_s, relative_information_type_s)

    @staticmethod
    def pairs() -> list:
        from test_formula_table import block_pair
        rng = np.random.default_rng(2201)
        return [random_pair(rng, n) for n in (3, _BLOCK + 1, 4 * _BLOCK)] + [block_pair(_BLOCK + 1)]

    @staticmethod
    def outcome(call, s, p, q):
        """A report's bits or a family value's, or the error where the order overflows."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # the family sums warn
                if call in (PHI, PSI):
                    return report_bits(bound_report(family_generator(call, s), p, q))
                return np.float64(call(s, p, q)).tobytes()
        except DomainError as err:
            return str(err)

    def test_reports_equal_those_with_the_memo_cleared(self, tables):
        pairs = self.pairs()
        calls = (PHI, PSI, *self.FAMILIES)
        cleared = {}
        for p, q in pairs + [(q, p) for p, q in pairs]:
            for call in calls:
                for s in self.ORDERS:
                    families._last = None
                    cleared[call, s, p, q] = self.outcome(call, s, p, q)

        def reports(kinds, orders):
            return [(kind, s, p, q) for p, q in pairs for kind in kinds for s in orders]
        sequences = [
            reports((PHI, PSI), self.ORDERS), reports((PSI, PHI), self.ORDERS),
            reports((PHI, PSI), self.ORDERS[::-1]),
            [(kind, s, p, q) for p, q in pairs for s in self.ORDERS for kind in (PHI, PSI)],
            # V, W and R between the reports on a pair, each kind in turn at each order
            [(call, s, p, q) for p, q in pairs for kind in (PHI, PSI) for s in self.ORDERS
             for call in (kind, *self.FAMILIES)],
            # two pairs in turn, and both directions in turn
            [(kind, s, *pair) for one, other in zip(pairs[::2], pairs[1::2]) for kind in (PHI, PSI)
             for s in self.ORDERS for pair in (one, other)],
            [(kind, s, *pair) for p, q in pairs for kind in (PHI, PSI) for s in self.ORDERS
             for pair in ((p, q), (q, p))],
        ]
        for steps in sequences:
            for call, s, p, q in steps:
                assert self.outcome(call, s, p, q) == cleared[call, s, p, q], (call, s, p.dim)
                assert len(tables) <= 1
        p, q = pairs[2]
        self.outcome(PSI, 0.5, p, q)  # PSI's rows at n = 65536
        table = families._last
        self.outcome(PSI, 2.0, p, q)
        assert families._last is table and table.key[1:] == (p, q)
        assert table.table.shape == (11, 4 * _BLOCK) and table.table.flags.c_contiguous  # W's and PSI's
        for view in [table.table, *(row for rows in table.views.values() for row in rows)]:
            with pytest.raises(ValueError, match="read-only"):
                view[..., 0] = 0.0

    def test_each_stage_runs_once_per_block(self, tables, monkeypatch):
        # over the nine orders on a pair, a report's family stage one and its own order-free rows
        # (``families._STAGES``) are each formed once per block of the pair's weights, and later
        # orders read them from the table; a count per stage, as ``tables`` counts the tables (f at
        # the ratio range's ends forms its own). A divergence forms no report rows, and linearized
        # functionals form them once
        formed, weights = collections.Counter(), []
        for stages in families._STAGES.values():
            for stage in stages:
                def counted(a, *rest, stage=stage):
                    if np.shares_memory(a, weights[-1]):
                        formed[stage.__name__] += 1
                    return stage(a, *rest)
                monkeypatch.setattr(families, stage.__name__, counted)
                monkeypatch.setitem(families._PLACES, counted, families._PLACES[stage])
        for p, q in self.pairs():
            weights.append(p.weights)
            blocks = -(-p.dim // _BLOCK)
            for kind, stages in ((PHI, ("_v_offsets", "_phi_mid")), (PSI, ("_w_offsets", "_psi_mid"))):
                formed.clear()
                for s in S_GRID:
                    bound_report(family_generator(kind, s), p, q)
                assert formed == {stage: blocks for stage in stages}, (kind, p.dim)
                families._last = None
                formed.clear()
                for s in S_GRID:
                    csiszar_divergence(family_generator(kind, s), p, q)
                assert formed == {stages[0]: blocks}, (kind, p.dim)
                for s in S_GRID:
                    linearized_functionals(family_generator(kind, s), p, q)
                assert formed == {stage: blocks for stage in stages}, (kind, p.dim)
        assert tables.built == 2 * 2 * len(self.pairs())  # per pair and kind: reports, then the rest

    def test_kept_maxima_are_each_rows_own(self):
        # a near block takes phi_s's series alone when its max |L| allows (``_alone``), and
        # the table keeps each row's max (``families._top``): the first block of this pair
        # lies wholly near P = Q, the second starts there and leaves it. Values with the
        # table equal those formed without it: a report's sums, the families' sums
        from test_formula_table import block_pair
        p, q = block_pair(2 * _BLOCK + 3)
        order = np.arange(p.dim)
        order[[_BLOCK, -1]] = order[[-1, _BLOCK]]  # the last entry, a near one, moved
        p, q = (validate_distribution(w.weights[order]) for w in (p, q))
        for s in S_GRID:
            for kind in (PHI, PSI):
                report = bound_report(family_generator(kind, s), p, q)
                formed = csiszar._sums(family_generator(kind, s), p.weights, q.weights)
                assert [report.value, report.linearized, report.linearized_mid] == \
                    [float(v[0]) for v in formed], (kind, s)
            for fn, values in ((ag_js_divergence_type_s, families._w_values),
                               (relative_information_type_s, families._r_values)):
                assert fn(s, p, q) == values(_column(s, 1), p.weights, q.weights), (fn, s)

    def test_threads_mixing_reports_and_family_calls_equal_serial_values(self):
        from test_formula_table import block_pair
        pairs = [block_pair(2 * _BLOCK + 3), random_pair(np.random.default_rng(2202), 3001)]
        calls = (PHI, PSI, *self.FAMILIES)
        serial = {(call, s, i): self.outcome(call, s, *pair)
                  for i, pair in enumerate(pairs) for call in calls for s in S_GRID}
        failures, together = [], threading.Barrier(4)

        def work(thread):
            for step in range(120):  # pair, call and order all change in turn
                call, s, i = calls[step // 2 % 5], S_GRID[step % 9], (thread + step) % 2
                together.wait(timeout=30)
                # two threads call on one pair, the second a little later, so that it
                # meets the first one's table half formed
                time.sleep(thread // 2 * 1e-4 * (step % 4))
                if self.outcome(call, s, *pairs[i]) != serial[call, s, i]:
                    failures.append((thread, step))
        run_in_threads(work, (0, 1, 2, 3))  # more threads than cores, in opposite turns by twos
        assert failures == []

    @pytest.mark.parametrize("kind, s, order", [(PHI, 1000.0, 0), (PSI, 1000.0, 0),
                                                (PSI, -800.0, 3)])
    def test_a_warm_table_names_the_same_failing_order(self, kind, s, order):
        p, q = validate_distribution([0.99, 0.01]), validate_distribution([0.01, 0.99])
        families._last = None
        cold = self.outcome(kind, s, p, q)
        for finite in (0.5, 2.0):  # reports at other orders form the pair's rows first
            self.outcome(kind, finite, p, q)
        assert families._last.key[1:] == (p, q)
        assert self.outcome(kind, s, p, q) == cold == (
            f"[GENERATOR_DOMAIN] generator '{kind.value}(s={s:g})' evaluation failed at "
            f"order {order}")


class TestCompareGenerators:
    def test_ratio_of_generator_to_itself_is_one(self, pair):
        rb = ratio_bounds(*pair)
        gen = family_generator(PHI, 0.5)
        cb = compare_generators(gen, gen, rb)
        assert cb.m_ratio == pytest.approx(1.0, abs=1e-12)
        assert cb.M_ratio == pytest.approx(1.0, abs=1e-12)

    def test_mixture_family_vs_j_generator_peaks_at_one(self, pair):
        rb = ratio_bounds(*pair)
        phi1 = family_generator(PHI, 1)
        for s in (-2.0, -1.0, 0.0):
            cb = compare_generators(family_generator(PSI, s), phi1, rb)
            assert cb.M_ratio == pytest.approx(0.125, abs=1e-9)
            assert cb.M_location == pytest.approx(1.0, abs=1e-4)
        for s in (1.0, 2.0):
            cb = compare_generators(family_generator(PSI, s), phi1, rb)
            assert cb.m_ratio == pytest.approx(0.125, abs=1e-9)
            assert cb.m_location == pytest.approx(1.0, abs=1e-4)

    def test_certified_sandwich_on_sampled_pairs(self, pair):
        rb = ratio_bounds(*pair)
        gen1 = family_generator(PSI, 0.0)
        gen2 = family_generator(PHI, 1.0)
        cb = compare_generators(gen1, gen2, rb)
        for weight in (0.0, 0.3, 0.7, 1.0):
            p = blend(*pair, weight)
            q = blend(*pair, 1 - weight)
            inner = ratio_bounds(p, q)
            if inner.degenerate:
                continue
            assert rb.r <= inner.r and inner.R <= rb.R
            c1 = csiszar_divergence(gen1, p, q)
            c2 = csiszar_divergence(gen2, p, q)
            assert cb.m_ratio * c2 <= c1 + 1e-10
            assert c1 <= cb.M_ratio * c2 + 1e-10

    def test_nonconvex_reference_raises(self, pair):
        def evaluate(order, x):
            if order == 0:
                return (x - 3.0) ** 4 / 12 - 0.005 * x ** 2 - (16 / 12 - 0.005)
            if order == 1:
                return (x - 3.0) ** 3 / 3 - 0.01 * x
            return (x - 3.0) ** 2 - 0.01

        bumpy = Generator(name="bumpy", evaluate=evaluate, max_order=2)
        rb = ratio_bounds(validate_distribution([0.8, 0.2]),
                          validate_distribution([0.2, 0.8]))
        with pytest.raises(DomainError) as err:
            compare_generators(family_generator(PHI, 1), bumpy, rb)
        assert err.value.code == "NONCONVEX_REFERENCE"


class TestCurvatureRatio:
    def test_value_at_one_is_eighth(self):
        for s in (-2, -0.5, 0, 1, 2.5):
            for t in (-1, 0, 0.5, 2):
                assert curvature_ratio(s, t, 1.0) == pytest.approx(0.125, rel=1e-12)

    def test_derived_point_values(self):
        # oracle: psi''_0(2) = 1/12, phi''_1(2) = 3/4; psi''_-1(2) = 2/27
        assert curvature_ratio(0, 1, 2.0) == pytest.approx(1 / 9, rel=1e-12)
        assert curvature_ratio(-1, 1, 2.0) == pytest.approx(8 / 81, rel=1e-12)

    def test_matches_generator_evals(self, pair):
        from symdiv import generator_eval
        for s, t, x in [(0.3, 1.7, 2.2), (-1.2, 0.4, 0.6)]:
            expected = (generator_eval(PSI, s, x, 2) / generator_eval(PHI, t, x, 2))
            assert curvature_ratio(s, t, x) == pytest.approx(expected, rel=1e-15)


class TestGeneratorConstruction:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError) as err:
            Generator(name="shifted", evaluate=lambda order, x: x + 1.0, max_order=2)
        assert err.value.code == "GENERATOR_DOMAIN"

    def test_rejects_concave(self):
        def evaluate(order, x):
            return {0: -((x - 1.0) ** 2), 1: -2 * (x - 1.0), 2: -2.0 * np.ones_like(x)}[order]
        with pytest.raises(DomainError) as err:
            Generator(name="concave", evaluate=evaluate, max_order=2)
        assert err.value.code == "GENERATOR_DOMAIN"

    def test_rejects_missing_second_order(self):
        with pytest.raises(DomainError) as err:
            Generator(name="linear-only", evaluate=lambda order, x: x - 1.0,
                      max_order=1)
        assert err.value.code == "MISSING_DERIVATIVE"

    def test_missing_third_order_yields_no_f3(self, pair):
        def evaluate(order, x):
            return {0: (x - 1.0) ** 2, 1: 2 * (x - 1.0), 2: 2.0 * np.ones_like(x)}[order]
        gen = Generator(name="pearson", evaluate=evaluate, max_order=2,
                        curvature_monotonicity=Curvature.INCREASING)
        delta, f3, variation = smoothness_bounds(gen, ratio_bounds(*pair))
        assert f3 is None
        assert delta == pytest.approx(0.0, abs=1e-15)
        assert variation == pytest.approx(2 * (1.5 - 2 / 3), rel=1e-12)

    def test_third_order_without_sup_yields_no_f3(self, pair):
        # KL's generator x log x - x + 1 gives f''' but no sup of |f'''|
        def evaluate(order, x):
            return {0: x * np.log(x) - x + 1.0, 1: np.log(x), 2: 1.0 / x,
                    3: -1.0 / x ** 2}[order]
        gen = Generator(name="kl", evaluate=evaluate, max_order=3,
                        curvature_monotonicity=Curvature.DECREASING)
        rep = bound_report(gen, *pair)
        assert rep.f3_sup is None and "f3_sup" not in rep.to_json_dict()
        delta, variation = 1.5 - 1 / 1.5, np.log(1.5 / (2 / 3))
        assert (rep.delta, rep.variation) == pytest.approx((delta, variation), rel=1e-12)
        chi2_term = delta * rep.chi2 / 8
        assert rep.half_E_bound == pytest.approx(
            min(chi2_term, variation * rep.total_variation), rel=1e-12)
        assert rep.E_star_bound == pytest.approx(
            min(chi2_term, variation * rep.total_variation / 2), rel=1e-12)
        assert abs(rep.value - rep.linearized / 2) <= rep.half_E_bound
        assert abs(rep.value - rep.linearized_mid) <= rep.E_star_bound


    def test_family_generators_are_cached_on_the_bits_of_their_order(self):
        zero = family_generator(PHI, 0.0)
        assert family_generator(PHI, -0.0).name == "PHI(s=-0)" and zero.name == "PHI(s=0)"
        assert family_generator(PHI, 0.0) is zero and family_generator(PHI, 0) is zero
        assert family_generator(PHI, np.float64(-0.0)) is family_generator(PHI, -0.0)
        assert family_generator(PSI, 0.0) is not zero


def holed(c=1.0, hole=None, curvature=Curvature.UNKNOWN):
    """c (x - 1)^2, with its derivative of order ``hole`` NaN at x = 1.5 alone,
    a ratio that the construction's spot grid does not meet."""
    def evaluate(order, x):
        out = c * {0: (x - 1.0) ** 2, 1: 2.0 * (x - 1.0), 2: 2.0 * np.ones_like(x)}[order]
        return np.where(np.abs(x - 1.5) < 1e-9, np.nan, out) if order == hole else out
    return Generator(name="holed", evaluate=evaluate, max_order=2, curvature_monotonicity=curvature)


class TestBoundaryChecks:
    @pytest.mark.parametrize("gen, weights, refused", [
        # f' is NaN at the ratio R = 0.6/0.4 alone: every field from f' is refused
        (holed(hole=1), ([0.6, 0.4], [0.4, 0.6]),
         {"bound_report": 1, "linearized_functionals": 1, "endpoint_bounds": 1,
          "smoothness_bounds": 1}),
        # f'(r) and f'(R) are finite, f'(R) - f'(r) overflows: A and the variation
        (holed(c=1e308), ([0.75, 0.25], [0.5, 0.5]),
         {"bound_report": 1, "endpoint_bounds": 1, "smoothness_bounds": 1}),
        # f'' alone is NaN at R, and f'' is flagged monotonic: delta
        (holed(hole=2, curvature=Curvature.INCREASING), ([0.6, 0.4], [0.4, 0.6]),
         {"bound_report": 2, "smoothness_bounds": 2}),
    ], ids=["slope-at-R", "slope-spread-overflows", "curvature-at-R"])
    def test_public_functions_refuse_a_failing_generator_value(self, gen, weights, refused):
        # construction passes; the kernels evaluate unchecked, and each public
        # function refuses its first field that is not finite, naming the
        # order that field comes from, and returns finite fields otherwise
        p, q = map(validate_distribution, weights)
        rb = ratio_bounds(p, q)
        calls = {"bound_report": lambda: bound_report(gen, p, q),
                 "csiszar_divergence": lambda: csiszar_divergence(gen, p, q),
                 "linearized_functionals": lambda: linearized_functionals(gen, p, q),
                 "endpoint_bounds": lambda: endpoint_bounds(gen, rb),
                 "smoothness_bounds": lambda: smoothness_bounds(gen, rb)}
        for name, call in calls.items():
            if name not in refused:
                out = call()
                fields = vars(out).values() if name == "bound_report" else np.ravel(out).tolist()
                assert all(np.isfinite(v) for v in fields if isinstance(v, float)), name
                continue
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == (f"[GENERATOR_DOMAIN] generator 'holed' evaluation "
                                      f"failed at order {refused[name]}"), name
        c = float(gen.evaluate(0, np.array([2.0]))[0])  # f = c (x - 1)^2: the divergence is c chi^2
        chi2 = float(((p.weights - q.weights) ** 2 / q.weights).sum())
        assert csiszar_divergence(gen, p, q) == pytest.approx(c * chi2, rel=1e-12)

    def test_bound_report_names_the_first_failing_value(self, pair):
        # f and f' both fail at R = 1.5: the report evaluates the value first,
        # then E and E*, then the endpoint and smoothness terms. Over more
        # than one block of entries, f' failing in the first block and f only
        # in the second, the value still comes first
        def holed(at_f, at_slope):
            def evaluate(order, x):
                out = {0: (x - 1.0) ** 2, 1: 2.0 * (x - 1.0), 2: 2.0 * np.ones_like(x)}[order]
                hole = (at_f, at_slope)[order] if order < 2 else None
                return out if hole is None else np.where(np.abs(x - hole) < 1e-9, np.inf, out)
            return Generator(name="holed", evaluate=evaluate, max_order=2)
        q = np.full(_BLOCK + 2, 1.0 / (_BLOCK + 2))
        p = q * np.concatenate([[1.5], np.ones(_BLOCK), [0.5]])  # ratio 1.5 first, 0.5 last
        for gen, pq in ((holed(1.5, 1.5), pair),
                        (holed(0.5, 1.5), (validate_distribution(p), validate_distribution(q)))):
            with pytest.raises(DomainError) as err:
                bound_report(gen, *pq)
            assert str(err.value) == \
                "[GENERATOR_DOMAIN] generator 'holed' evaluation failed at order 0"

    @pytest.mark.parametrize("kind, s", [(PHI, 200), (PHI, 1000), (PSI, 1000), (PSI, -800)])
    def test_overflow_is_refused_without_a_warning(self, kind, s):
        # the ratios 99 and 1/99 overflow these orders: each public entry
        # returns or refuses as it does with warnings ignored, and lets out no
        # numpy RuntimeWarning first (under "error" that would replace the code)
        p, q = validate_distribution([0.99, 0.01]), validate_distribution([0.01, 0.99])
        gen, rb = family_generator(kind, s), ratio_bounds(p, q)
        calls = {"bound_report": lambda: bound_report(gen, p, q),
                 "csiszar_divergence": lambda: csiszar_divergence(gen, p, q),
                 "linearized_functionals": lambda: linearized_functionals(gen, p, q),
                 "endpoint_bounds": lambda: endpoint_bounds(gen, rb),
                 "smoothness_bounds": lambda: smoothness_bounds(gen, rb)}

        def outcome(call, action):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                try:
                    return repr(call())
                except DomainError as err:
                    return str(err)

        for name, call in calls.items():
            assert outcome(call, "error") == outcome(call, "ignore"), name
        with pytest.raises(DomainError, match=r"^\[GENERATOR_DOMAIN\] "):
            bound_report(gen, p, q)

    @pytest.mark.parametrize("s", [200, 1000])
    def test_a_large_order_names_the_value_that_failed(self, s):
        # f overflows at the ratio 99, and the divergence is refused as order 0
        # at s = 1000 as at s = 200, although there f'' also overflows on the
        # construction spot grid
        p, q = validate_distribution([0.99, 0.01]), validate_distribution([0.01, 0.99])
        gen = family_generator(PHI, s)
        with pytest.raises(DomainError) as err:
            csiszar_divergence(gen, p, q)
        assert str(err.value) == \
            f"[GENERATOR_DOMAIN] generator 'PHI(s={s})' evaluation failed at order 0"
        with pytest.raises(DomainError) as err:  # f' then fails first, at order 1
            smoothness_bounds(gen, ratio_bounds(p, q))
        assert str(err.value).endswith("evaluation failed at order 1")

    def test_a_failing_third_derivative_sup_is_refused_as_order_3(self):
        # f and f' stay finite at the ends of this range while f''' overflows:
        # the sup of |f'''| is refused, not returned as NaN
        p, q = validate_distribution([0.8, 0.2]), validate_distribution([0.2, 0.8])
        gen, rb = family_generator(PSI, -800), ratio_bounds(p, q)
        with pytest.raises(DomainError) as err:
            smoothness_bounds(gen, rb)
        assert str(err.value) == \
            "[GENERATOR_DOMAIN] generator 'PSI(s=-800)' evaluation failed at order 3"
        assert all(np.isfinite(endpoint_bounds(gen, rb)))

    @pytest.mark.parametrize("kind", [MeasureKind.J, "PHI", None, 1])
    def test_family_generator_refuses_other_kinds(self, kind):
        # a MeasureKind used to build the PSI generator under its own name
        with pytest.raises(InputError) as err:
            family_generator(kind, 0.5)
        assert err.value.code == "PARAMETER_OUT_OF_RANGE"
        with pytest.raises(InputError) as same:
            generator_eval(kind, 0.5, 1.0)
        assert str(err.value) == str(same.value) == (
            f"[PARAMETER_OUT_OF_RANGE] unknown generator family {kind!r}")


class TestGridGenerator:
    def test_rows_are_the_generators_of_each_order(self):
        grid = (-5.0, -1.5, 0.0, 0.5, 2.0, 2.5)
        x = np.array([0.3, 1.0, 2.7])
        for family in (PHI, PSI):
            gen = _family_generator(family, np.array(grid))
            assert gen.name == tuple(family_generator(family, s).name for s in grid)
            assert gen.curvature_monotonicity == tuple(
                family_generator(family, s).curvature_monotonicity for s in grid)
            for order in range(4):
                assert np.array_equal(gen.evaluate(order, x), [
                    family_generator(family, s).evaluate(order, x) for s in grid])
            r, big_r = np.array([0.05, 0.5]), np.array([1.5, 30.0])
            assert np.array_equal(gen.third_sup_closed_form(r, big_r), [
                family_generator(family, s).third_sup_closed_form(r, big_r) for s in grid])


# the default grid, and s near where G's exponents collide (s = -3, -2, -1)
# or its leading coefficient changes sign (s = 2, 3)
PSI_ROOT_S = sorted({*DEFAULT_GRID, -1.0 - 1e-9, -1.0 + 1e-9, -1.0 - 1e-6, -1.0 + 1e-6,
                     2.0 - 1e-6, 2.0 + 1e-6, 3.0 - 1e-9, 3.0 + 1e-9, -2.0, -3.0, 30.0, -30.0})


class TestPsiStationary:
    @pytest.mark.parametrize("s", PSI_ROOT_S)
    def test_roots_match_oracle(self, s):
        # mpf(s) is the double itself: near s = -1 a root moves by about
        # 1/|s + 1| times any rounding of s
        expected = oracle.stationary_points("PSI", mpf(s), mpf("1e-12"), mpf("1e12"), scan=480)
        roots = _psi_stationary(s)
        assert len(roots) == len(expected), (roots, expected)
        for x, ref in zip(roots, expected):
            assert abs(x - ref) <= 1e-14 * ref, (x, ref)

    def test_roots_are_solved_once_per_order(self, monkeypatch):
        # the roots depend on s alone: a second sweep or generator at the
        # same orders runs no bisection and finds the same tuples
        calls = []
        real = csiszar._bisect
        monkeypatch.setattr(csiszar, "_bisect", lambda *args: calls.append(args) or real(*args))
        _psi_stationary.cache_clear()
        grid = (-5.0, -2.5, 0.5, 2.2, 6.0)
        config = SweepConfig(dims=(3,), samples_per_dim=2, seed=3, s_grid=grid)
        counts, roots = [], []
        for _ in range(2):
            before = len(calls)
            run_sweep(config)
            for s in grid:
                smoothness_bounds(family_generator(PSI, s), RatioBounds(0.5, 2.0))
            counts.append(len(calls) - before)
            roots.append([_psi_stationary(s) for s in grid])
        assert counts[0] > 0 and counts[1] == 0
        assert roots[0] == roots[1] == [_psi_stationary.__wrapped__(s) for s in grid]
        assert all(type(xs) is tuple for xs in roots[0])


@pytest.mark.parametrize("kind, s, order", [
    (GeneratorFamilyKind.PHI, 1.0, 4), (GeneratorFamilyKind.PSI, 1.0, 4),
    (GeneratorFamilyKind.PHI, 0.5, -1), (GeneratorFamilyKind.PHI, 0.5, 1.5),
    (GeneratorFamilyKind.PSI, 0.5, 2.5)])
def test_generator_refuses_an_order_it_lacks(kind, s, order):
    with pytest.raises(InputError) as err:
        family_generator(kind, s).eval(order, 1.0)
    assert err.value.code == "UNSUPPORTED_ORDER"

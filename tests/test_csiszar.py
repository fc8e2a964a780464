import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

import oracle
from conftest import assert_close, sampled_pairs
from symdiv import (Curvature, DomainError, Generator, GeneratorFamilyKind,
                    MeasureKind, bound_report, classic_divergence,
                    compare_generators, csiszar_divergence, curvature_ratio,
                    endpoint_bounds, family_generator, generator_eval,
                    linearized_functionals, mixture, ratio_bounds,
                    smoothness_bounds, validate_distribution)
from symdiv.csiszar import _psi_stationary
from symdiv.means import raised_mean
from symdiv.verify import DEFAULT_GRID, pair_for

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

    def test_json_field_names(self, pair):
        rep = bound_report(family_generator(PSI, 0.5), *pair)
        payload = rep.to_json_dict()
        assert set(payload) == {
            "generator", "value", "linearized", "linearized_mid", "endpoint_A",
            "endpoint_B", "delta", "f3_sup", "variation", "chi2", "abs_chi3",
            "total_variation", "half_E_bound", "E_star_bound", "ratio_bounds"}
        assert json.dumps(payload)  # serializable as-is


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


class TestBoundaryChecks:
    def test_public_functions_refuse_a_failing_generator_value(self, pair):
        # f' is NaN at the pair's ratio R = 0.6/0.4 alone, so construction
        # passes; the kernels evaluate unchecked and the public functions
        # must still refuse the result
        def evaluate(order, x):
            out = {0: (x - 1.0) ** 2, 1: 2.0 * (x - 1.0), 2: 2.0 * np.ones_like(x)}[order]
            return np.where(np.abs(x - 1.5) < 1e-9, np.nan, out) if order == 1 else out
        gen = Generator(name="holed", evaluate=evaluate, max_order=2)
        rb = ratio_bounds(*pair)
        calls = {"bound_report": lambda: bound_report(gen, *pair),
                 "linearized_functionals": lambda: linearized_functionals(gen, *pair),
                 "endpoint_bounds": lambda: endpoint_bounds(gen, rb),
                 "smoothness_bounds": lambda: smoothness_bounds(gen, rb)}
        for name, call in calls.items():
            with pytest.raises(DomainError) as err:
                call()
            assert err.value.code == "GENERATOR_DOMAIN", name
            assert "'holed' evaluation failed at order 1" in str(err.value), name
        assert csiszar_divergence(gen, *pair) == pytest.approx(0.04 / 0.4 + 0.04 / 0.6, rel=1e-12)


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

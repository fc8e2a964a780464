import numpy as np
import pytest

import oracle
from conftest import assert_close, sampled_pairs
from symdiv import (InputError, MeasureKind, classic_divergence, mixture,
                    ratio_bounds, relative_information_type_s, vajda_abs_chi, vajda_upper_bounds,
                    vajda_variation_coefficients, validate_distribution)
from symdiv.divergences import DIRECTIONAL_KINDS, AFFINITY_KINDS

PAIRS = sampled_pairs(per_dim=15)

ORACLE_FN = {
    MeasureKind.HELLINGER: oracle.hellinger,
    MeasureKind.BHATTACHARYYA: oracle.bhattacharyya,
    MeasureKind.TRIANGULAR: oracle.triangular,
    MeasureKind.HARMONIC: oracle.harmonic,
    MeasureKind.SYM_CHI2: oracle.sym_chi2,
    MeasureKind.CHI2: oracle.chi2,
    MeasureKind.KL: oracle.kl,
    MeasureKind.J: oracle.j_divergence,
    MeasureKind.JS: oracle.js_divergence,
    MeasureKind.AG: oracle.ag_divergence,
    MeasureKind.D_NEW: oracle.d_new,
    MeasureKind.TOTAL_VARIATION: oracle.total_variation,
}


class TestAgainstOracle:
    @pytest.mark.parametrize("kind", list(MeasureKind), ids=lambda k: k.name)
    def test_canonical_pair(self, kind, pair):
        p, q = pair
        expected = float(ORACLE_FN[kind](p.as_tuple(), q.as_tuple()))
        assert classic_divergence(kind, p, q) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("kind", list(MeasureKind), ids=lambda k: k.name)
    def test_three_point_pair(self, kind, pair3):
        p, q = pair3
        expected = float(ORACLE_FN[kind](p.as_tuple(), q.as_tuple()))
        assert classic_divergence(kind, p, q) == pytest.approx(expected, rel=1e-13)

    def test_kl_where_the_ratio_is_below_the_float_spacing(self):
        # a/b = 1e-300/0.99: (a - b)/b rounds to -1, where log1p is -inf
        p, q = validate_distribution([1e-300, 1.0]), validate_distribution([0.99, 0.01])
        want = float(oracle.kl(p.as_tuple(), q.as_tuple()))
        assert [classic_divergence(MeasureKind.KL, p, q), relative_information_type_s(1.0, p, q),
                relative_information_type_s(0.0, q, p)] == pytest.approx([want] * 3, rel=1e-15)


class TestStructure:
    def test_identity_of_indiscernibles(self):
        p = validate_distribution([0.3, 0.3, 0.4])
        for kind in MeasureKind:
            expected = 1.0 if kind in AFFINITY_KINDS else 0.0
            assert classic_divergence(kind, p, p) == pytest.approx(expected, abs=1e-15)

    def test_symmetry_of_symmetric_kinds(self):
        for p, q in PAIRS[:40]:
            for kind in MeasureKind:
                if kind in DIRECTIONAL_KINDS:
                    continue
                assert_close(classic_divergence(kind, p, q),
                             classic_divergence(kind, q, p), 1e-12, kind.name)

    def test_hellinger_complements_bhattacharyya(self):
        for p, q in PAIRS[:40]:
            h = classic_divergence(MeasureKind.HELLINGER, p, q)
            b = classic_divergence(MeasureKind.BHATTACHARYYA, p, q)
            assert_close(h, 1.0 - b, 1e-12, "h = 1 - B")

    def test_triangular_complements_harmonic(self):
        for p, q in PAIRS[:40]:
            tri = classic_divergence(MeasureKind.TRIANGULAR, p, q)
            w = classic_divergence(MeasureKind.HARMONIC, p, q)
            assert_close(tri, 2.0 * (1.0 - w), 1e-12, "tri = 2(1 - W)")

    def test_j_splits_into_js_and_ag(self):
        for p, q in PAIRS:
            j = classic_divergence(MeasureKind.J, p, q)
            js = classic_divergence(MeasureKind.JS, p, q)
            ag = classic_divergence(MeasureKind.AG, p, q)
            assert_close(j, 4.0 * (js + ag), 1e-12, "J = 4(JS + AG)")

    def test_kl_decompositions(self):
        for p, q in PAIRS[:40]:
            m = mixture(p, q)
            kl = lambda a, b: classic_divergence(MeasureKind.KL, a, b)
            assert_close(classic_divergence(MeasureKind.J, p, q),
                         kl(p, q) + kl(q, p), 1e-12, "J")
            assert_close(classic_divergence(MeasureKind.JS, p, q),
                         (kl(p, m) + kl(q, m)) / 2, 1e-12, "JS")
            assert_close(classic_divergence(MeasureKind.AG, p, q),
                         (kl(m, p) + kl(m, q)) / 2, 1e-12, "AG")

    def test_le_cam_window(self):
        for p, q in PAIRS[:40]:
            tri = classic_divergence(MeasureKind.TRIANGULAR, p, q)
            h = classic_divergence(MeasureKind.HELLINGER, p, q)
            assert tri / 4 <= h + 1e-12
            assert h <= tri / 2 + 1e-12

    def test_dimension_mismatch(self, pair, pair3):
        with pytest.raises(InputError) as err:
            classic_divergence(MeasureKind.J, pair[0], pair3[0])
        assert err.value.code == "DIMENSION_MISMATCH"


class TestVajda:
    def test_canonical_values(self, pair):
        p, q = pair
        for m, expected in [(1, 0.4), (2, 1 / 6), (3, 0.0722222222222222)]:
            assert vajda_abs_chi(m, p, q) == pytest.approx(expected, rel=1e-12)

    def test_order_two_matches_chi2(self):
        for p, q in PAIRS[:40]:
            assert_close(vajda_abs_chi(2, p, q),
                         classic_divergence(MeasureKind.CHI2, p, q), 1e-12, "m=2")

    def test_order_one_matches_total_variation(self):
        for p, q in PAIRS[:40]:
            assert_close(vajda_abs_chi(1, p, q),
                         classic_divergence(MeasureKind.TOTAL_VARIATION, p, q),
                         1e-12, "m=1")

    def test_upper_bounds_canonical(self, pair):
        rb = ratio_bounds(*pair)
        for m, expected in [(1, (0.4, 5 / 12)),
                            (2, (1 / 6, 25 / 144)),
                            (3, (13 / 180, 125 / 1728))]:
            bound1, bound2 = vajda_upper_bounds(m, rb)
            assert bound1 == pytest.approx(expected[0], rel=1e-12)
            assert bound2 == pytest.approx(expected[1], rel=1e-12)
            assert bound1 <= bound2 * (1 + 1e-12)

    def test_bounds_hold_on_sampled_pairs(self):
        for p, q in PAIRS:
            rb = ratio_bounds(p, q)
            if rb.degenerate:
                continue
            for m in (1.0, 1.7, 2.0, 3.0):
                bound1, bound2 = vajda_upper_bounds(m, rb)
                value = vajda_abs_chi(m, p, q)
                assert value <= bound1 + 1e-10 * max(1.0, bound1)
                assert bound1 <= bound2 + 1e-10 * max(1.0, bound2)

    def test_two_point_pairs_attain_bound1(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.uniform(0.05, 0.95, size=2)
            p = validate_distribution([a, 1 - a])
            q = validate_distribution([b, 1 - b])
            rb = ratio_bounds(p, q)
            if rb.degenerate:
                continue
            for m in (1, 2, 3):
                bound1, _ = vajda_upper_bounds(m, rb)
                assert_close(vajda_abs_chi(m, p, q), bound1, 1e-12, f"m={m}")

    def test_upper_variation_coefficient_holds(self):
        for p, q in PAIRS[:40]:
            rb = ratio_bounds(p, q)
            if rb.degenerate:
                continue
            tv = classic_divergence(MeasureKind.TOTAL_VARIATION, p, q)
            for m in (1, 2, 3):
                _, hi = vajda_variation_coefficients(m, rb)
                assert vajda_abs_chi(m, p, q) <= hi * tv + 1e-10 * max(1.0, hi * tv)

    def test_lower_variation_coefficient_is_diagnostic_only(self, pair):
        # the printed lower claim fails this desk check, which is exactly
        # why the verifier runs it as a diagnostic
        p, q = pair
        rb = ratio_bounds(p, q)
        lo, _ = vajda_variation_coefficients(2, rb)
        tv = classic_divergence(MeasureKind.TOTAL_VARIATION, p, q)
        assert lo * tv > vajda_abs_chi(2, p, q)

    def test_rejects_small_order(self, pair):
        with pytest.raises(InputError) as err:
            vajda_abs_chi(0.5, *pair)
        assert err.value.code == "PARAMETER_OUT_OF_RANGE"

    @pytest.mark.parametrize("m", ["a", "2", None, True, 2j])
    def test_orders_must_be_real_numbers(self, pair, m):
        rb = ratio_bounds(*pair)
        for call in (lambda: vajda_abs_chi(m, *pair), lambda: vajda_upper_bounds(m, rb),
                     lambda: vajda_variation_coefficients(m, rb)):
            with pytest.raises(InputError) as err:
                call()
            assert str(err.value) == f"[PARAMETER_OUT_OF_RANGE] order must satisfy m >= 1, got {m}"

    def test_rejects_degenerate_bounds(self):
        p = validate_distribution([0.5, 0.5])
        with pytest.raises(Exception) as err:
            vajda_upper_bounds(2, ratio_bounds(p, p))
        assert err.value.code == "DEGENERATE_BOUNDS"


@pytest.mark.parametrize("kind", ["KL", None, 1])
def test_classic_divergence_refuses_what_is_not_a_measure_kind(pair, kind):
    with pytest.raises(InputError) as err:
        classic_divergence(kind, *pair)
    assert str(err.value) == f"[PARAMETER_OUT_OF_RANGE] unknown measure kind {kind!r}"

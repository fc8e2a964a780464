import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdiv import (DomainError, InputError, NormalizationMode, NormalizationPolicy,
                    load_weights, mixture, ratio_bounds, sample_simplex,
                    validate_distribution)
from symdiv.simplex import SIMPLEX_FLOOR, Distribution, RatioBounds, parse_weights

RENORM = NormalizationPolicy(NormalizationMode.RENORMALIZE)

weight_lists = st.lists(
    st.floats(min_value=1e-4, max_value=1.0, allow_nan=False), min_size=2, max_size=12)


class TestValidation:
    def test_accepts_valid_vector(self):
        d = validate_distribution([0.6, 0.4])
        assert d.as_tuple() == (0.6, 0.4)
        assert d.dim == 2

    def test_renormalize_scales_to_unit_sum(self):
        d = validate_distribution([3, 1], RENORM)
        assert d.as_tuple() == (0.75, 0.25)

    def test_renormalize_with_epsilon(self):
        d = validate_distribution([0.0, 1.0], NormalizationPolicy(
            NormalizationMode.RENORMALIZE, epsilon=0.25))
        np.testing.assert_allclose(d.weights, [0.25 / 1.5, 1.25 / 1.5], rtol=1e-15)

    def test_rejects_zero_weight(self):
        with pytest.raises(InputError) as err:
            validate_distribution([0.5, 0.0, 0.5])
        assert err.value.code == "NONPOSITIVE_WEIGHT"

    def test_rejects_bad_sum(self):
        with pytest.raises(InputError) as err:
            validate_distribution([0.5, 0.4])
        assert err.value.code == "NOT_NORMALIZED"

    def test_rejects_nan(self):
        with pytest.raises(InputError) as err:
            validate_distribution([0.5, float("nan")])
        assert err.value.code == "NON_FINITE"

    def test_rejects_short_vector(self):
        with pytest.raises(InputError) as err:
            validate_distribution([1.0])
        assert err.value.code == "DIMENSION_TOO_SMALL"

    def test_epsilon_must_stay_below_uniform_mass(self):
        with pytest.raises(InputError) as err:
            validate_distribution([1, 1], NormalizationPolicy(
                NormalizationMode.RENORMALIZE, epsilon=0.5))
        assert err.value.code == "PARAMETER_OUT_OF_RANGE"

    @pytest.mark.parametrize("epsilon", [None, "0.1", True, 0.1j, float("nan"), -0.1])
    def test_epsilon_must_be_a_real_number(self, epsilon):
        with pytest.raises(InputError) as err:
            NormalizationPolicy(NormalizationMode.RENORMALIZE, epsilon)
        assert str(err.value) == ("[PARAMETER_OUT_OF_RANGE] smoothing epsilon must be finite "
                                  f"and >= 0, got {epsilon}")

    @pytest.mark.parametrize("mode", ["renormalize", "reject", None, 1, True])
    def test_mode_must_be_a_normalization_mode(self, mode):
        # a string that names a mode would otherwise act silently as REJECT
        with pytest.raises(InputError) as err:
            NormalizationPolicy(mode)
        assert str(err.value) == ("[PARAMETER_OUT_OF_RANGE] normalization mode must be a "
                                  f"NormalizationMode, got {mode!r}")

    def test_weights_are_immutable(self):
        d = validate_distribution([0.6, 0.4])
        with pytest.raises(ValueError):
            d.weights[0] = 0.5


class TestRatioBounds:
    def test_two_point_pair(self, pair):
        rb = ratio_bounds(*pair)
        np.testing.assert_allclose([rb.r, rb.R], [2 / 3, 1.5], rtol=1e-12)
        assert not rb.degenerate

    def test_three_point_pair(self, pair3):
        rb = ratio_bounds(*pair3)
        np.testing.assert_allclose([rb.r, rb.R], [0.4, 2.0], rtol=1e-12)

    def test_identical_pair_is_degenerate(self):
        p = validate_distribution([0.5, 0.5])
        rb = ratio_bounds(p, p)
        assert rb.r == rb.R == 1.0
        assert rb.degenerate

    def test_dimension_mismatch(self, pair, pair3):
        with pytest.raises(InputError) as err:
            ratio_bounds(pair[0], pair3[0])
        assert err.value.code == "DIMENSION_MISMATCH"

    def test_normalization_slop_still_straddles_one(self):
        # proportional pair inside the sum tolerance: every ratio sits a
        # hair above one; the interval must widen to include one
        p = validate_distribution([0.5000000004, 0.5000000004])
        q = validate_distribution([0.4999999996, 0.4999999996])
        rb = ratio_bounds(p, q)
        assert rb.r == 1.0
        assert rb.R > 1.0
        assert not rb.degenerate

    @given(weight_lists, weight_lists)
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_relation_and_ratio_inequality(self, raw_p, raw_q):
        if len(raw_p) != len(raw_q):
            raw_q = (raw_q * len(raw_p))[:len(raw_p)]
        p = validate_distribution(raw_p, RENORM)
        q = validate_distribution(raw_q, RENORM)
        fwd, rev = ratio_bounds(p, q), ratio_bounds(q, p)
        assert fwd.r == pytest.approx(1.0 / rev.R, rel=1e-12)
        assert fwd.R == pytest.approx(1.0 / rev.r, rel=1e-12)
        if not fwd.degenerate:
            r, R = fwd.r, fwd.R
            assert (R - 1) * (1 - r) <= (R - r) ** 2 / 4 + 1e-12


class TestMixture:
    def test_symmetric_pair(self, pair):
        np.testing.assert_array_equal(mixture(*pair).weights, [0.5, 0.5])

    def test_idempotent(self):
        p = validate_distribution([0.3, 0.7])
        np.testing.assert_array_equal(mixture(p, p).weights, p.weights)

    @given(weight_lists, weight_lists)
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, raw_p, raw_q):
        if len(raw_p) != len(raw_q):
            raw_q = (raw_q * len(raw_p))[:len(raw_p)]
        p = validate_distribution(raw_p, RENORM)
        q = validate_distribution(raw_q, RENORM)
        np.testing.assert_array_equal(mixture(p, q).weights, mixture(q, p).weights)


class TestSampling:
    def test_deterministic(self):
        a, b = sample_simplex(2, 42), sample_simplex(2, 42)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_keeps_its_stream(self):
        # C7 and the test fixtures draw from this stream, apart from the sweep's
        assert sample_simplex(3, 42).weights.tolist() == [
            0.3374252443136453, 0.32787893865749046, 0.3346958170288642]
        np.testing.assert_array_equal(sample_simplex(np.int64(3), np.int64(42)).weights,
                                      sample_simplex(3, 42).weights)

    def test_floor_and_sum(self):
        for seed in range(20):
            d = sample_simplex(5, seed)
            assert d.weights.min() >= SIMPLEX_FLOOR * (1 - 5 * SIMPLEX_FLOOR)
            assert abs(d.weights.sum() - 1.0) <= 1e-12

    def test_coordinates_are_uniform_on_average(self):
        means = np.mean([sample_simplex(3, seed).weights for seed in range(1, 1001)], axis=0)
        np.testing.assert_allclose(means, 1 / 3, atol=0.05)

    def test_rejects_small_dimension(self):
        for n in (1, 0, -1, np.int64(1)):
            with pytest.raises(InputError) as err:
                sample_simplex(n, 0)
            assert err.value.code == "DIMENSION_TOO_SMALL", n

    @pytest.mark.parametrize("n, seed", [(3, -1), (3, 1.5), (3, True), (3, "1"), (3, None),
                                         (2.5, 0), (True, 0), ("3", 0), (1.0, 0), (1.5, -1)])
    def test_rejects_inputs_that_are_not_integers(self, n, seed):
        with pytest.raises(InputError) as err:
            sample_simplex(n, seed)
        assert err.value.code == "BAD_CONFIG"


class TestInputFormats:
    def test_json_format(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"weights": [0.6, 0.4]}))
        assert load_weights(path) == [0.6, 0.4]

    def test_csv_format(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.6\n0.4\n")
        assert load_weights(path) == [0.6, 0.4]
        assert parse_weights("0.5\n\n0.5\n") == [0.5, 0.5]  # a blank row is skipped

    def test_rejects_missing_key(self):
        with pytest.raises(InputError) as err:
            parse_weights('{"mass": [1, 2]}')
        assert err.value.code == "BAD_INPUT_FILE"

    def test_rejects_garbage_csv(self):
        with pytest.raises(InputError) as err:
            parse_weights("0.5\nhello\n")
        assert err.value.code == "BAD_INPUT_FILE"

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(InputError) as err:
            load_weights(tmp_path / "nope.json")
        assert err.value.code == "BAD_INPUT_FILE"


@pytest.mark.parametrize("call, error, code, message", [
    (lambda: RatioBounds(1.5, 2.0), DomainError, "PARAMETER_OUT_OF_RANGE", "0 < r <= 1 <= R"),
    (lambda: validate_distribution([-0.5, 1.5], RENORM), InputError, "NONPOSITIVE_WEIGHT",
     "after smoothing"),
    (lambda: parse_weights("{not json"), InputError, "BAD_INPUT_FILE", "invalid JSON"),
    (lambda: parse_weights("\n\n"), InputError, "BAD_INPUT_FILE", "no numbers"),
    (lambda: Distribution(np.array([1.0])), InputError, "DIMENSION_TOO_SMALL", "at least 2"),
    (lambda: Distribution(np.array([np.nan, 0.5])), InputError, "NON_FINITE", "finite"),
], ids=["ratio-bounds", "renormalized", "bad-json", "no-numbers", "one-weight", "nan-weight"])
def test_refusals_name_their_code(call, error, code, message):
    with pytest.raises(error) as err:
        call()
    assert err.value.code == code
    assert message in str(err.value)

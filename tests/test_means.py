import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdiv import DomainError, MeanQuery, log_power_mean

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
orders = st.floats(min_value=-5, max_value=5, allow_nan=False)


class TestValues:
    def test_logarithmic_mean(self):
        # oracle: 1/ln 2 = 1.44269504088896...
        assert log_power_mean(MeanQuery(-1, 1, 2)) == pytest.approx(
            1.4426950408889634, rel=1e-12)

    def test_arithmetic_mean(self):
        assert log_power_mean(MeanQuery(1, 2, 4)) == pytest.approx(3.0, rel=1e-15)

    def test_raised_logarithmic(self):
        # oracle: (ln 1.5 - ln(2/3)) / (5/6) = 0.973116259460448...
        assert log_power_mean(MeanQuery(-1, 2 / 3, 1.5, raised=True)) == pytest.approx(
            0.9731162594604477, rel=1e-12)

    def test_identric_mean(self):
        # oracle: e^-1 (2^2/1^1)^(1/1) = 4/e
        assert log_power_mean(MeanQuery(0, 1, 2)) == pytest.approx(
            4 / math.e, rel=1e-12)

    def test_equal_arguments_take_the_limit(self):
        assert log_power_mean(MeanQuery(2.5, 3.0, 3.0)) == 3.0
        assert log_power_mean(MeanQuery(2.0, 3.0, 3.0, raised=True)) == 9.0

    @pytest.mark.parametrize("p", [-1.125, -1.0, 0.0, 2.5])
    def test_adjacent_arguments_take_the_limit(self, p):
        # b one ulp above a: the branch formulas cancel to 0 or to noise
        a, b = 0.001, math.nextafter(0.001, 1.0)
        for raised in (False, True):
            value = log_power_mean(MeanQuery(p, a, b, raised))
            assert value == pytest.approx(a ** p if raised else a, rel=1e-12)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(DomainError) as err:
            MeanQuery(1, 0.0, 1.0)
        assert err.value.code == "NONPOSITIVE_ARGUMENT"


class TestProperties:
    @given(orders, positive, positive)
    @settings(max_examples=120, deadline=None)
    def test_symmetry_and_betweenness(self, p, a, b):
        value = log_power_mean(MeanQuery(p, a, b))
        assert value == pytest.approx(log_power_mean(MeanQuery(p, b, a)), rel=1e-10)
        lo, hi = min(a, b), max(a, b)
        assert lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12)

    @given(orders, positive, positive)
    @settings(max_examples=120, deadline=None)
    def test_raised_is_power_of_plain(self, p, a, b):
        if abs(p) < 1e-6 or abs(p + 1) < 1e-6:
            return
        plain = log_power_mean(MeanQuery(p, a, b))
        raised = log_power_mean(MeanQuery(p, a, b, raised=True))
        assert raised == pytest.approx(plain ** p, rel=1e-12)

    def test_continuity_at_branch_points(self):
        # near-equal arguments keep the p-derivative of L_p small enough
        # for the 1e-8 window at p0 +- 1e-6
        for a, b in [(0.9, 1.1), (0.95, 1.0), (2.0, 2.2)]:
            for p0 in (-1.0, 0.0):
                at_branch = log_power_mean(MeanQuery(p0, a, b))
                for p in (p0 - 1e-6, p0 + 1e-6):
                    assert abs(log_power_mean(MeanQuery(p, a, b)) - at_branch) <= 1e-8


@pytest.mark.parametrize("p", [float("inf"), -float("inf"), float("nan")])
def test_rejects_an_order_that_is_not_finite(p):
    with pytest.raises(DomainError) as err:
        MeanQuery(p, 1.0, 2.0)
    assert str(err.value) == f"[PARAMETER_OUT_OF_RANGE] mean order must be finite, got {p}"


@pytest.mark.parametrize("p, a, b", [("1", 1.0, 2.0), (None, 1.0, 2.0), (1.0, "1", 2.0),
                                     (1.0, 1.0, None), (True, 1.0, 2.0), (1.0, 1 + 0j, 2.0)])
def test_rejects_what_is_not_a_real_number(p, a, b):
    with pytest.raises(DomainError) as err:
        MeanQuery(p, a, b)
    assert err.value.code == "PARAMETER_OUT_OF_RANGE"

import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agiecon import (
    DomainError,
    TransitionParams,
    UndefinedIndexError,
    agi_wage,
    human_power,
    human_wage,
    power_curve,
)

mpmath.mp.dps = 50


def power_oracle(w0, w_inf, lam, l):
    """Brute-force high-precision evaluation of the income-share formula."""
    l = mpmath.mpf(l)
    decay = mpmath.e ** (-mpmath.mpf(lam) * l)
    human = mpmath.mpf(w0) * decay * (1 - l)
    agi = mpmath.mpf(w_inf) * (1 - decay) * l
    return float(human / (human + agi))


transition_params = st.builds(
    TransitionParams,
    w0=st.floats(0.1, 10.0),
    w_inf=st.floats(0.0, 10.0),
    lam=st.floats(0.1, 20.0),
)


class TestHumanWage:
    def test_starts_at_w0(self):
        assert human_wage(TransitionParams(w0=1, w_inf=1, lam=2), 0.0) == 1.0

    def test_midpoint(self):
        value = human_wage(TransitionParams(w0=1, w_inf=1, lam=2), 0.5)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert abs(value - 0.3678794412) <= 5e-11

    def test_endpoint(self):
        value = human_wage(TransitionParams(w0=3, w_inf=1, lam=1), 1.0)
        assert value == pytest.approx(3 * math.exp(-1.0), rel=1e-15)
        assert abs(value - 1.1036383235) <= 5e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            human_wage(TransitionParams(), 1.5)

    @given(transition_params, st.floats(0.0, 1.0), st.floats(0.001, 0.5))
    def test_strictly_decreasing(self, tp, l, step):
        upper = min(l + step, 1.0)
        if upper > l:
            assert human_wage(tp, upper) < human_wage(tp, l)


class TestAgiWage:
    def test_starts_at_zero(self):
        assert agi_wage(TransitionParams(w0=2, w_inf=7, lam=9), 0.0) == 0.0

    def test_midpoint(self):
        value = agi_wage(TransitionParams(w0=1, w_inf=1, lam=2), 0.5)
        assert value == pytest.approx(1 - math.exp(-1.0), rel=1e-15)
        assert abs(value - 0.6321205588) <= 5e-11

    def test_zero_asymptote(self):
        tp = TransitionParams(w0=1, w_inf=0, lam=5)
        for l in (0.0, 0.3, 1.0):
            assert agi_wage(tp, l) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            agi_wage(TransitionParams(), -0.1)


class TestHumanPower:
    def test_decentralized_endpoint_is_one(self):
        assert human_power(TransitionParams(w0=4.2, w_inf=3.3, lam=7.7), 0.0) == 1.0

    def test_midpoint_collapses_to_decay(self):
        tp = TransitionParams(w0=1, w_inf=1, lam=2)
        value = human_power(tp, 0.5)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert value == pytest.approx(power_oracle(1, 1, 2, 0.5), rel=1e-14)

    def test_centralized_endpoint_is_exactly_zero(self):
        # the (1 - l) weight annihilates the numerator; the weightless
        # wage-ratio reading of this endpoint would give exp(-lam) instead
        assert human_power(TransitionParams(w0=1, w_inf=1, lam=10), 1.0) == 0.0

    def test_undefined_when_no_income(self):
        with pytest.raises(UndefinedIndexError):
            human_power(TransitionParams(w0=1, w_inf=0, lam=2), 1.0)

    def test_tiny_income_is_still_defined(self):
        # only an exact zero total leaves the index undefined; an absolute
        # cutoff (total < 1e-300) used to reject this point, whose index is 1
        tp = TransitionParams(w0=1e-305, w_inf=0.0, lam=2.0)
        assert human_power(tp, 0.0) == 1.0
        assert power_curve(tp, 3)[0].p_h == 1.0

    def test_degenerate_asymptote_stays_at_one(self):
        tp = TransitionParams(w0=1, w_inf=0, lam=3)
        for l in (0.0, 0.25, 0.5, 0.99):
            assert human_power(tp, l) == 1.0

    @given(transition_params, st.floats(0.0, 1.0))
    def test_bounded_and_matches_oracle(self, tp, l):
        try:
            value = human_power(tp, l)
        except UndefinedIndexError:
            return
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(power_oracle(tp.w0, tp.w_inf, tp.lam, l), abs=1e-12)

    @given(transition_params, st.floats(0.0, 1.0), st.floats(0.001, 0.5))
    def test_non_increasing(self, tp, l, step):
        upper = min(l + step, 1.0)
        try:
            later, earlier = human_power(tp, upper), human_power(tp, l)
        except UndefinedIndexError:
            return  # below the income threshold the index is deliberately undefined
        assert later <= earlier


class TestPowerCurve:
    def test_three_point_curve(self):
        points = power_curve(TransitionParams(w0=1, w_inf=1, lam=2), 3)
        assert [p.l_agi for p in points] == [0.0, 0.5, 1.0]
        assert points[0].p_h == 1.0
        assert points[1].p_h == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert points[2].p_h == 0.0

    def test_two_points_are_the_endpoints(self):
        points = power_curve(TransitionParams(w0=2, w_inf=3, lam=1), 2)
        assert [p.l_agi for p in points] == [0.0, 1.0]

    def test_family_strictly_decreasing(self):
        for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
            points = power_curve(TransitionParams(w0=1, w_inf=1, lam=lam), 1001)
            for before, after in zip(points, points[1:]):
                assert after.p_h < before.p_h

    def test_undefined_point_is_flagged_not_fatal(self):
        points = power_curve(TransitionParams(w0=1, w_inf=0, lam=2), 5)
        assert [math.isnan(p.p_h) for p in points] == [False, False, False, False, True]
        assert points[3].p_h == 1.0

    def test_labor_normalization(self):
        points = power_curve(TransitionParams(), 101)
        for p in points:
            assert (1.0 - p.l_agi) + p.l_agi == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            power_curve(TransitionParams(), 1)


class TestParamValidation:
    def test_w0_positive(self):
        with pytest.raises(DomainError):
            TransitionParams(w0=0.0, w_inf=1.0, lam=1.0)

    def test_w_inf_nonnegative(self):
        with pytest.raises(DomainError):
            TransitionParams(w0=1.0, w_inf=-0.5, lam=1.0)

    def test_lambda_positive_finite(self):
        with pytest.raises(DomainError):
            TransitionParams(w0=1.0, w_inf=1.0, lam=math.inf)

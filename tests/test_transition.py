import math
import struct
import tracemalloc
from itertools import compress
from operator import not_

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from agiecon import (
    ContractViolationError,
    DomainError,
    PowerCurve,
    TransitionParams,
    UndefinedIndexError,
    agi_wage,
    human_power,
    human_wage,
    power_curve,
)
from agiecon.transition import _zeros, power_columns, power_index

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
    @example(TransitionParams(w0=1.0, w_inf=1.0, lam=0.5), 0.9999999999999999, 0.5)
    def test_strictly_decreasing(self, tp, l, step):
        # upper is clipped to 1, which can be one ulp above l; exp(-lam * l)
        # then rounds to the same float at both ends, so strictness is only
        # asked of steps that move the exponent by far more than an ulp
        upper = min(l + step, 1.0)
        assert human_wage(tp, upper) <= human_wage(tp, l)
        if upper - l >= 1e-9:
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
        message = "^no labor income at l_agi=1.0: power index undefined$"
        with pytest.raises(UndefinedIndexError, match=message):
            human_power(TransitionParams(w0=1, w_inf=0, lam=2), 1.0)

    def test_tiny_income_is_still_defined(self):
        # only an exact zero total leaves the index undefined; an absolute
        # cutoff (total < 1e-300) used to reject this point, whose index is 1
        tp = TransitionParams(w0=1e-305, w_inf=0.0, lam=2.0)
        assert human_power(tp, 0.0) == 1.0
        assert power_curve(tp, 3).p_h[0] == 1.0

    def test_subnormal_wages_keep_precision(self):
        # incomes formed before the ratio lost precision here: 0.36759
        tp = TransitionParams(w0=1e-320, w_inf=1e-320, lam=2.0)
        assert human_power(tp, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize(
        ("w0", "w_inf", "l", "expected"),
        [
            (1e-320, 1e10, 0.0, 1.0),  # w_inf / w0 overflows against a zero weight
            (1e-320, 1e10, 1.0, 0.0),
            (1e10, 1e-320, 1.0, 0.0),  # w_inf / w0 underflows, yet AGI income is positive
        ],
    )
    def test_extreme_wage_ratios_keep_the_endpoints(self, w0, w_inf, l, expected):
        assert human_power(TransitionParams(w0=w0, w_inf=w_inf, lam=2.0), l) == expected

    def test_vanishing_rate_keeps_the_agi_income(self):
        # 1 - exp(-lam * l) rounds to 0 for lam * l below about 1.1e-16, yet
        # the AGI income is positive, so the index at l = 1 is 0, not undefined
        tp = TransitionParams(w0=1, w_inf=1, lam=1e-17)
        assert agi_wage(tp, 1.0) == 1e-17
        assert human_power(tp, 1.0) == 0.0
        curve = power_curve(tp, 3)
        assert curve.w_agi == (0.0, 5e-18, 1e-17)
        assert curve.p_h == (1.0, 1.0, 0.0)

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
        curve = power_curve(TransitionParams(w0=1, w_inf=1, lam=2), 3)
        assert curve.l_agi == (0.0, 0.5, 1.0)
        assert curve.p_h[0] == 1.0
        assert curve.p_h[1] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert curve.p_h[2] == 0.0

    def test_two_points_are_the_endpoints(self):
        curve = power_curve(TransitionParams(w0=2, w_inf=3, lam=1), 2)
        assert curve.l_agi == (0.0, 1.0)

    def test_family_strictly_decreasing(self):
        for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
            p_h = power_curve(TransitionParams(w0=1, w_inf=1, lam=lam), 1001).p_h
            for before, after in zip(p_h, p_h[1:]):
                assert after < before

    def test_undefined_point_is_flagged_not_fatal(self):
        p_h = power_curve(TransitionParams(w0=1, w_inf=0, lam=2), 5).p_h
        assert [math.isnan(p) for p in p_h] == [False, False, False, False, True]
        assert p_h[3] == 1.0

    def test_labor_normalization(self):
        for l_agi in power_curve(TransitionParams(), 101).l_agi:
            assert (1.0 - l_agi) + l_agi == pytest.approx(1.0, abs=1e-12)

    def test_columns_are_immutable_tuples(self):
        curve = power_curve(TransitionParams(), 11)
        assert len(curve) == 11
        assert curve._fields == ("l_agi", "w_h", "w_agi", "p_h")
        for column in curve._values():
            assert type(column) is tuple and len(column) == 11
        with pytest.raises(AttributeError):
            curve.p_h = ()

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            power_curve(TransitionParams(), 1)

    def test_grid_is_i_over_n_minus_one(self):
        for n in (2, 11, 101):
            l_agi = power_curve(TransitionParams(lam=1.0), n).l_agi
            assert l_agi == tuple(i / (n - 1) for i in range(n))
            assert l_agi[0] == 0.0 and l_agi[-1] == 1.0

    @pytest.mark.parametrize("n", [2, 2048, 2049, 5000])
    @pytest.mark.parametrize("w_inf", [0.0, 1.5])
    def test_windows_join_to_the_whole_curve(self, n, w_inf):
        # sweep's windows of 2048 points, and uneven ones; w_inf = 0 ends in a nan
        tp = TransitionParams(w0=0.7, w_inf=w_inf, lam=3.0)
        whole = power_curve(tp, n)
        grid = range(n)
        blocks = range(0, n, 2048)
        cuts = sorted({0, 1, n // 3, n - 1, n})
        for bounds in [list(zip(blocks, [*blocks[1:], n])), list(zip(cuts, cuts[1:]))]:
            windows = [power_curve(tp, n, grid[start:end]) for start, end in bounds]
            for name in PowerCurve._fields:
                joined = [x for window in windows for x in getattr(window, name)]
                assert bits(joined) == bits(getattr(whole, name)), name

    @pytest.mark.parametrize(
        "points",
        [[0, 1], range(0, 4, 2), range(4, 0, -1), range(-1, 2), range(3, 6), range(5, 7)],
        ids=["list", "step-2", "step-minus-1", "before", "past-the-end", "after"],
    )
    def test_a_window_is_a_range_of_the_grid(self, points):
        with pytest.raises(
            ContractViolationError, match=r"^points must be a window of range\(0, 5\), got "
        ):
            power_curve(TransitionParams(), 5, points)

    def test_the_grid_size_is_checked_before_the_window(self):
        with pytest.raises(DomainError):
            power_curve(TransitionParams(), 1, [0])

    def test_a_dropped_curve_leaves_nothing_allocated(self):
        # no grid outlives its curve; a kept 10**5-point grid is about 3.2 MB
        tracemalloc.start()
        try:
            curve = power_curve(TransitionParams(), 10**5)
            del curve
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left < 100_000


def bits(column):
    """The IEEE-754 bytes of a float column: equal for equal floats, NaN and signed zero included."""
    return struct.pack(f"{len(column)}d", *column)


def reference_point(tp, l):
    """One grid point through the public single-point functions."""
    try:
        p_h = human_power(tp, l)
    except UndefinedIndexError:
        p_h = math.nan
    return (l, human_wage(tp, l), agi_wage(tp, l), p_h)


def scalar_point(tp, l):
    """One grid point by scalar formulas, written apart from ``power_columns``
    and the point kernel.

    Where exp rounds to 1 although lam * l > 0, 1 - exp is 0 and -expm1
    gives the rise; the incomes are relative to w0, and the zero income
    weights are settled before the ratio.
    """
    exponent = -tp.lam * l
    decay = math.exp(exponent)
    rise = 1.0 - decay or -math.expm1(exponent)
    human_income = decay * (1.0 - l)
    agi_weight = rise * l
    if human_income == 0.0:
        p_h = math.nan if agi_weight == 0.0 or tp.w_inf == 0.0 else 0.0
    elif agi_weight == 0.0:
        p_h = 1.0
    else:
        p_h = human_income / (human_income + tp.w_inf / tp.w0 * agi_weight)
    return (l, tp.w0 * decay, tp.w_inf * rise, p_h)


# the extremes make w_inf / w0 overflow or underflow, lam = 1000 makes the
# decay underflow to 0 from l = 0.746 on, before the grid reaches l = 1, and
# lam = 1e-320 leaves exp(-lam * l) at 1, so 1 - exp(-lam * l) is 0 everywhere
wide_transition_params = st.builds(
    TransitionParams,
    w0=st.one_of(st.floats(0.1, 10.0), st.sampled_from([1e-320, 1e10])),
    w_inf=st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.sampled_from([1e-320, 1e10])),
    lam=st.one_of(st.floats(0.1, 20.0), st.sampled_from([1000.0, 1e-320])),
)


@given(wide_transition_params, st.integers(2, 400))
@example(TransitionParams(w0=1, w_inf=0, lam=2), 2)
@example(TransitionParams(w0=1, w_inf=1, lam=1000), 2)
# w_inf / w0 is inf, so inf * 0 meets agi_weight = 0 at l = 0, where p_h is 1
@example(TransitionParams(w0=1e-320, w_inf=1e10, lam=2), 101)
# exp underflows mid-grid: a nan suffix with w_inf = 0, a 0.0 suffix with w_inf > 0
@example(TransitionParams(w0=1, w_inf=0, lam=1000), 101)
@example(TransitionParams(w0=1, w_inf=2, lam=1000), 101)
# 1 - exp(-lam * l) == 0 at every point, and expm1 gives the AGI wage
@example(TransitionParams(w0=1, w_inf=1, lam=1e-320), 101)
@example(TransitionParams(w0=1, w_inf=1, lam=1e-17), 3)
def test_fused_curve_matches_the_single_point_functions_exactly(tp, n):
    curve = power_curve(tp, n)
    assert type(curve) is PowerCurve and len(curve) == n
    for i, point in enumerate(zip(curve.l_agi, curve.w_h, curve.w_agi, curve.p_h)):
        want = struct.pack("<4d", *scalar_point(tp, i / (n - 1)))
        # bit for bit: 0.0 and -0.0 differ, and nan matches only nan
        assert struct.pack("<4d", *point) == want
        assert struct.pack("<4d", *reference_point(tp, i / (n - 1))) == want


shares = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 1e-17, 1.0 - 2**-53])),
    max_size=50,
)


@given(wide_transition_params, shares)
def test_power_columns_match_human_power_on_any_shares(tp, l_agi):
    # run_scenario takes p_h_transition from power_index over its adoption shares
    decay, rise = power_columns(tp, l_agi)
    scalar = [scalar_point(tp, l) for l in l_agi]
    assert bits([tp.w0 * d for d in decay]) == bits([point[1] for point in scalar])
    assert bits([tp.w_inf * r for r in rise]) == bits([point[2] for point in scalar])
    want = bits([point[3] for point in scalar])
    assert bits(power_index(tp, l_agi)) == want
    assert bits([reference_point(tp, l)[3] for l in l_agi]) == want


# lam <= 20 keeps exp(-lam * l) >= 2e-9, so with these wages no product is
# subnormal and none overflows, and doubling both wages is exact
scaled_wages = st.builds(
    TransitionParams,
    w0=st.sampled_from([2.0**k for k in range(-20, 21, 5)]) | st.floats(0.1, 10.0),
    w_inf=st.just(0.0) | st.floats(0.1, 10.0) | st.floats(1e-10, 1e10),
    lam=st.floats(0.1, 20.0) | st.just(1e-17),
)


@given(scaled_wages, st.integers(2, 300))
@example(TransitionParams(w0=1, w_inf=0, lam=2), 101)  # p_h is nan at l = 1
@example(TransitionParams(w0=1, w_inf=1, lam=1e-17), 3)  # the rise from expm1
def test_doubling_both_wages_keeps_the_index_and_doubles_the_wages(tp, n):
    # the wage-scale metamorphic relation (R2): scaling by a power of two is
    # exact in binary floating point, so the relation holds bit for bit
    curve = power_curve(tp, n)
    doubled = power_curve(tp._replace(w0=2.0 * tp.w0, w_inf=2.0 * tp.w_inf), n)
    assert bits(doubled.p_h) == bits(curve.p_h)
    assert bits(doubled.w_h) == bits([2.0 * w for w in curve.w_h])
    assert bits(doubled.w_agi) == bits([2.0 * w for w in curve.w_agi])


def compress_zeros(column):
    """The indices ``power_columns`` once found with a Python-level pass."""
    return list(compress(range(len(column)), map(not_, column)))


@pytest.mark.parametrize(
    "column",
    [
        [],
        [math.nan],
        [0.0, 0.5, -0.0, math.nan, 1.0, 0.0],  # zeros at both ends
        [-0.0, math.nan, math.nan, 5e-324, -0.0],
        [0.0] * 7,
        [0.25, -5e-324, math.nan],
    ],
)
def test_zero_indices_match_the_compress_form(column):
    # -0.0 is a zero and NaN is not, as for ``not x``
    assert _zeros(column) == compress_zeros(column)


@given(st.lists(st.sampled_from([0.0, -0.0, math.nan, 1.0, 5e-324, -1.0]), max_size=40))
def test_zero_indices_match_the_compress_form_on_any_column(column):
    assert _zeros(column) == compress_zeros(column)


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

import functools
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agiecon import (
    ContractViolationError,
    LimitClassification,
    LimitDirection,
    LimitKind,
    ModelIIIParams,
    ModelIIParams,
    ModelIParams,
    NonFiniteDerivativeError,
    NonFiniteOutputError,
    UndefinedIndexError,
    classify_limit,
    marginal_product,
    model_output,
    model_technology,
    model_wages,
    output,
    power_index_model3,
)
from agiecon.diagnostics import _random_model3

mpmath.mp.dps = 50

TO_ZERO = LimitDirection.TO_ZERO_PLUS
TO_INF = LimitDirection.TO_INFINITY


class TestModelOutput:
    def test_model1_linear_case(self):
        params = ModelIParams(A=1, K=3, K_AGI=1, L=1, alpha=1, beta=1)
        assert model_output(params) == 4.0

    def test_model3_hand_value(self):
        params = ModelIIIParams(
            A=1, K=16, K_AGI=81, L_h=25, L_AGI=1, alpha=0.25, gamma=0.25, beta1=0.5, beta2=0.7
        )
        y = model_output(params)
        assert y == pytest.approx(30.0, rel=1e-15)  # 2 * 3 * 5 * 1
        oracle = float(
            mpmath.mpf(16) ** mpmath.mpf(0.25)
            * mpmath.mpf(81) ** mpmath.mpf(0.25)
            * mpmath.mpf(25) ** mpmath.mpf(0.5)
        )
        assert y == pytest.approx(oracle, rel=1e-15)

    def test_model2_unit_inputs(self):
        params = ModelIIParams(A=1, K=1, L1=1, L2=1, alpha=0.9, beta1=0.2, beta2=0.7)
        assert model_output(params) == 1.0

    def test_non_params_argument_rejected(self):
        fields = vars(ModelIParams(A=1, K=1, K_AGI=1, L=1, alpha=0.5, beta=0.5))
        with pytest.raises(ContractViolationError, match="params record, got dict"):
            model_output(dict(fields))


class TestModelWages:
    def test_model2_unit_inputs_wage_equals_exponent(self):
        params = ModelIIParams(A=1, K=1, L1=1, L2=1, alpha=0.3, beta1=0.4, beta2=0.2)
        wages = model_wages(params)
        assert wages["L1"] == pytest.approx(0.4, rel=1e-15)
        assert wages["L2"] == pytest.approx(0.2, rel=1e-15)

    def test_model1_hand_value(self):
        params = ModelIParams(A=2, K=0, K_AGI=4, L=9, alpha=0.5, beta=0.5)
        wage = model_wages(params)["L"]
        assert wage == pytest.approx(0.5 * 2 * 2 * 9**-0.5, rel=1e-15)
        # finite-difference oracle on the literal Model I formula
        h = 1e-6 * 9.0
        fd = (2 * 4**0.5 * (9 + h) ** 0.5 - 2 * 4**0.5 * (9 - h) ** 0.5) / (2 * h)
        assert wage == pytest.approx(fd, rel=1e-8)

    def test_model3_zero_beta1_gives_zero_wage(self):
        params = ModelIIIParams(
            A=2, K=1, K_AGI=1, L_h=3, L_AGI=1, alpha=0.3, gamma=0.2, beta1=0.0, beta2=0.5
        )
        assert model_wages(params)["L_h"] == 0.0

    def test_zero_labor_quantity_raises(self):
        params = ModelIParams(A=1, K=1, K_AGI=1, L=0, alpha=0.5, beta=0.5)
        with pytest.raises(NonFiniteDerivativeError):
            model_wages(params)


class TestDelegation:
    def test_output_and_wages_match_production_core(self):
        rng = random.Random(501)
        labor = {
            ModelIParams: ("L",),
            ModelIIParams: ("L1", "L2"),
            ModelIIIParams: ("L_h", "L_AGI"),
        }
        for _ in range(200):
            m3 = _random_model3(rng)
            cases = [
                ModelIParams(A=m3.A, K=m3.K, K_AGI=m3.K_AGI, L=m3.L_h,
                             alpha=m3.alpha, beta=m3.beta1),
                ModelIIParams(A=m3.A, K=m3.K, L1=m3.L_h, L2=m3.L_AGI,
                              alpha=m3.alpha, beta1=m3.beta1, beta2=m3.beta2),
                m3,
            ]
            for params in cases:
                tech, bundle = model_technology(params)
                assert model_output(params) == pytest.approx(
                    output(tech, bundle), rel=1e-12
                )
                wages = model_wages(params)
                for factor in labor[type(params)]:
                    assert wages[factor] == pytest.approx(
                        marginal_product(tech, bundle, factor), rel=1e-12
                    )

    def test_wage_bill_identity(self):
        # competitive income of each labor factor is elasticity * output
        rng = random.Random(502)
        for _ in range(300):
            params = _random_model3(rng)
            y = model_output(params)
            wages = model_wages(params)
            assert wages["L_h"] * params.L_h == pytest.approx(params.beta1 * y, rel=1e-10)
            assert wages["L_AGI"] * params.L_AGI == pytest.approx(params.beta2 * y, rel=1e-10)


# with these draws no product overflows or is subnormal
_quantities = st.floats(1e-3, 1e3)
_exponents = st.floats(0.0, 2.0)


def _bits(params):
    """The bits of Y and of each labor factor's wage, in LABOR order."""
    return [model_output(params).hex(), *(w.hex() for w in model_wages(params).values())]


class TestNesting:
    """The nesting relation (R4): a model with one factor switched off is
    the smaller model, bit for bit, as x**0.0 == 1.0 and K + 0.0 == K."""

    @given(st.floats(0.1, 10.0), st.just(0.0) | _quantities, st.just(0.0) | _quantities,
           _quantities, _quantities, _exponents, _exponents, _exponents)
    def test_model3_without_agi_capital_elasticity_is_model2(
        self, a, k, k_agi, l_h, l_agi, alpha, beta1, beta2
    ):
        m3 = ModelIIIParams(A=a, K=k, K_AGI=k_agi, L_h=l_h, L_AGI=l_agi,
                            alpha=alpha, gamma=0.0, beta1=beta1, beta2=beta2)
        m2 = ModelIIParams(A=a, K=k, L1=l_h, L2=l_agi, alpha=alpha, beta1=beta1, beta2=beta2)
        assert _bits(m3) == _bits(m2)

    @given(st.floats(0.1, 10.0), st.just(0.0) | _quantities, _quantities, _quantities,
           _exponents, _exponents)
    def test_model1_without_agi_capital_is_model2_without_agi_labor(
        self, a, k, l, l2, alpha, beta
    ):
        m1 = ModelIParams(A=a, K=k, K_AGI=0.0, L=l, alpha=alpha, beta=beta)
        m2 = ModelIIParams(A=a, K=k, L1=l, L2=l2, alpha=alpha, beta1=beta, beta2=0.0)
        assert _bits(m1) == _bits(m2)[:2]


class TestPowerIndex:
    def test_elasticity_ratio(self):
        params = ModelIIIParams(
            A=1.7, K=2.0, K_AGI=5.0, L_h=0.4, L_AGI=6.0, alpha=0.3, gamma=0.4, beta1=0.3, beta2=0.2
        )
        index = power_index_model3(params)
        assert index == pytest.approx(0.6, abs=1e-12)
        # verify via direct wage computation, independently of the identity
        wages = model_wages(params)
        direct = wages["L_h"] * 0.4 / (wages["L_h"] * 0.4 + wages["L_AGI"] * 6.0)
        assert index == direct

    def test_symmetry(self):
        params = ModelIIIParams(
            A=1, K=1, K_AGI=1, L_h=2, L_AGI=9, alpha=0.2, gamma=0.2, beta1=0.37, beta2=0.37
        )
        assert power_index_model3(params) == pytest.approx(0.5, abs=1e-12)

    def test_zero_beta1_means_no_human_income(self):
        params = ModelIIIParams(
            A=1, K=1, K_AGI=1, L_h=2, L_AGI=9, alpha=0.2, gamma=0.2, beta1=0.0, beta2=0.4
        )
        assert power_index_model3(params) == 0.0

    def test_no_labor_elasticity_is_undefined(self):
        params = ModelIIIParams(
            A=1, K=1, K_AGI=1, L_h=2, L_AGI=9, alpha=0.2, gamma=0.2, beta1=0.0, beta2=0.0
        )
        # the zero-income check after this one raises the same class; the message tells them apart
        with pytest.raises(
            UndefinedIndexError, match="^beta1 \\+ beta2 = 0: no labor income exists$"
        ):
            power_index_model3(params)

    def test_labor_elasticities_summing_to_one_define_the_index(self):
        params = ModelIIIParams(
            A=1, K=1, K_AGI=1, L_h=2, L_AGI=9, alpha=0.0, gamma=0.0, beta1=0.75, beta2=0.25
        )
        assert params.beta1 + params.beta2 == 1.0
        assert power_index_model3(params) == pytest.approx(0.75, abs=1e-12)

    def test_zero_labor_quantity_violates_contract(self):
        params = ModelIIIParams(
            A=1, K=1, K_AGI=1, L_h=0, L_AGI=9, alpha=0.2, gamma=0.2, beta1=0.3, beta2=0.4
        )
        with pytest.raises(ContractViolationError):
            power_index_model3(params)

    def test_other_models_violate_contract(self):
        params = ModelIIParams(A=1, K=1, L1=2, L2=9, alpha=0.2, beta1=0.3, beta2=0.4)
        with pytest.raises(
            ContractViolationError, match="^model_iii expects ModelIIIParams, got ModelIIParams$"
        ):
            power_index_model3(params)

    def test_negative_labor_elasticity_violates_contract(self):
        params = ModelIIIParams(
            A=1, K=1, K_AGI=1, L_h=2, L_AGI=9, alpha=0.2, gamma=0.2, beta1=-0.1, beta2=0.4
        )
        with pytest.raises(
            ContractViolationError, match="^power index needs beta1 >= 0 and beta2 >= 0$"
        ):
            power_index_model3(params)

    def test_no_output_means_no_labor_income(self):
        # K = 0 with alpha > 0 makes Y = 0, so both wages and both incomes are 0
        params = ModelIIIParams(
            A=1, K=0, K_AGI=1, L_h=2, L_AGI=9, alpha=0.2, gamma=0.2, beta1=0.3, beta2=0.4
        )
        with pytest.raises(
            UndefinedIndexError, match="^total labor income is zero; index undefined$"
        ):
            power_index_model3(params)

    @given(
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(0.5, 3.0),
    )
    def test_argument_independence(self, k, k_agi, l_h, l_agi, a):
        params = ModelIIIParams(
            A=a, K=k, K_AGI=k_agi, L_h=l_h, L_AGI=l_agi,
            alpha=0.3, gamma=0.25, beta1=0.3, beta2=0.2,
        )
        assert power_index_model3(params) == pytest.approx(0.6, abs=1e-12)


class TestComplementEffect:
    def test_human_wage_rises_with_agi_labor(self):
        # with beta2 > 0, AGI labor enters the human wage as a positive multiplier
        for k in (0.5, 1.0, 4.0):
            for l1 in (0.3, 1.0, 2.5):
                previous = None
                for l2 in (0.5, 1.0, 2.0, 4.0, 8.0):
                    params = ModelIIParams(
                        A=1.3, K=k, L1=l1, L2=l2, alpha=0.3, beta1=0.4, beta2=0.2
                    )
                    wage = model_wages(params)["L1"]
                    if previous is not None:
                        assert wage > previous
                    previous = wage


# --- limit classification -------------------------------------------------

# Rational parameter sets; quantities 1/2, 1 and 2 exercise the shrinking,
# neutral and growing branches of exponent-to-infinity limits.
MODEL1_VALUES = dict(A=2, K=Fraction(1, 2), K_AGI=Fraction(1, 2), L=2, alpha=Fraction(3, 10), beta=Fraction(1, 2))
MODEL2_VALUES = dict(A=1, K=1, L1=Fraction(1, 2), L2=2, alpha=Fraction(3, 10), beta1=Fraction(2, 5), beta2=Fraction(1, 5))
MODEL3_VALUES = dict(
    A=1, K=2, K_AGI=1, L_h=Fraction(1, 2), L_AGI=3,
    alpha=Fraction(3, 10), gamma=Fraction(1, 4), beta1=Fraction(2, 5), beta2=Fraction(1, 5),
)
MODEL3_NO_AGI_ELASTICITY = dict(MODEL3_VALUES, beta2=Fraction(0))

_SYMBOLIC_OUTPUT = {
    ModelIParams: ("A * (K + K_AGI)**alpha * L**beta", ("L",)),
    ModelIIParams: ("A * K**alpha * L1**beta1 * L2**beta2", ("L1", "L2")),
    ModelIIIParams: (
        "A * K**alpha * K_AGI**gamma * L_h**beta1 * L_AGI**beta2",
        ("L_h", "L_AGI"),
    ),
}


def sympy_limit_kind(cls, values, target, direction, wage):
    """Independent oracle: symbolic differentiation plus symbolic limits."""
    expr_text, _ = _SYMBOLIC_OUTPUT[cls]
    symbols = {name: sp.Symbol(name, positive=True) for name in values}
    expr = sp.sympify(expr_text, locals=symbols)
    if wage is not None:
        expr = sp.diff(expr, symbols[wage])
    v = sp.Symbol("v", positive=True)
    substitutions = {
        symbols[name]: (v if name == target else sp.Rational(value))
        for name, value in values.items()
    }
    expr = expr.subs(substitutions)
    point, direction_flag = ((0, "+") if direction is TO_ZERO else (sp.oo, "-"))
    result = sp.limit(expr, v, point, direction_flag)
    if result.is_infinite:
        return LimitKind.DIVERGES, None
    value = float(result)
    if value == 0.0:
        return LimitKind.ZERO, None
    return LimitKind.FINITE, value


# --- the literal observable in mpmath, far past every turning point ----------

_EXPONENT_FIELDS = frozenset({"alpha", "gamma", "beta", "beta1", "beta2"})
_FLOAT_MAX = mpmath.mpf(sys.float_info.max)
_SUBNORMAL_MIN = mpmath.mpf(2) ** -1074


@functools.cache
def _literal_observable(cls, wage):
    """Output, or ``wage``'s marginal product by sympy's derivative, as an mpmath
    function of the record's fields; and, by elasticity, the base it raises."""
    expr_text, _ = _SYMBOLIC_OUTPUT[cls]
    symbols = [sp.Symbol(name, positive=True) for name in cls._fields]
    output_expr = sp.sympify(expr_text, locals={symbol.name: symbol for symbol in symbols})
    if wage is None:
        observable = output_expr
    else:
        observable = sp.diff(output_expr, sp.Symbol(wage, positive=True))
    bases = {
        power.exp.name: sp.lambdify(symbols, power.base, "mpmath")
        for power in output_expr.atoms(sp.Pow)
    }
    return sp.lambdify(symbols, observable, "mpmath"), bases


def mpmath_limit(params, target, direction, wage):
    """The limit's kind, and its value if finite, read off the literal observable
    at two values of the target, the second 1e40 times further on than the first.

    Toward the limit log|f| changes by p * ln(1e40) through v**p and by
    (v2 - v1) * ln r through r**v.  The first point lies so far out that every
    other term, (offset + v)**e or r**v where v -> 0+, moves log|f| by a few
    times 1e-40 * delta at most, where delta bounds a nonzero |p| from below.
    """
    function, bases = _literal_observable(type(params), wage)
    with mpmath.workdps(400):
        fields = {name: mpmath.mpf(getattr(params, name)) for name in params._fields}
        exponents = [fields[name] for name in params._fields if name in _EXPONENT_FIELDS]
        # v's power is 1 (a wage's prefactor), an elasticity e or the power rule's e - 1
        delta = min([1, *(abs(p) for e in exponents for p in (e, e - 1) if p)])
        if target in _EXPONENT_FIELDS:
            log_r = abs(mpmath.log(bases[target](*fields.values())))
            scale = (1 + log_r + (1 / log_r if log_r else 0)) / delta
        else:
            others = [
                value
                for name, value in fields.items()
                if name not in _EXPONENT_FIELDS and name not in ("A", target)
            ]
            scale = (1 + mpmath.fsum(others) + 1 / min(others)) / delta
        step = mpmath.mpf(10) ** (40 if direction is TO_INF else -40)
        first = step * scale if direction is TO_INF else step / scale
        values = [function(*dict(fields, **{target: v}).values()) for v in (first, first * step)]
        if values == [0, 0]:
            return LimitKind.ZERO, None
        change = mpmath.log(abs(values[1])) - mpmath.log(abs(values[0]))
        if change > delta:
            return LimitKind.DIVERGES, None
        if change < -delta:
            return LimitKind.ZERO, None
        return LimitKind.FINITE, values[1]


# log-uniform over the float range's bulk, and next to 1 on both sides
_quantities = st.one_of(
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12]),
)
_exponents = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12]),
    st.floats(-3.0, 3.0),
    st.builds(
        lambda size, sign: math.copysign(10.0**size, sign),
        st.floats(-300.0, -6.0),
        st.sampled_from([1.0, -1.0]),
    ),
)


@st.composite
def limit_cases(draw):
    cls = draw(st.sampled_from(list(_SYMBOLIC_OUTPUT)))
    fields = {
        name: draw(_exponents if name in _EXPONENT_FIELDS else _quantities)
        for name in cls._fields
    }
    target = draw(st.sampled_from([name for name in cls._fields if name != "A"]))
    direction = draw(st.sampled_from([TO_ZERO, TO_INF]))
    wage = draw(st.sampled_from([None, *_SYMBOLIC_OUTPUT[cls][1]]))
    return cls(**fields), target, direction, wage


# (params, target, direction, wage) whose verdict must not depend on where the
# observable turns, on what its constant factor rounds to, or on a rounded sum
PEAKS_AT_1E12 = (
    ModelIIParams(A=1, K=1, L1=1 - 1e-12, L2=1, alpha=0.3, beta1=0.5, beta2=0.2),
    "beta1", TO_INF, "L1",
)
CONSTANT_OVERFLOWS = (
    ModelIParams(A=1, K=1e300, K_AGI=1, L=1e300, alpha=0.5, beta=2), "K_AGI", TO_INF, None
)
CONSTANT_UNDERFLOWS = (
    ModelIIParams(A=1e-200, K=1e-200, L1=1, L2=1, alpha=1, beta1=0.5, beta2=0.2),
    "L1", TO_INF, None,
)
BASE_ROUNDS_TO_1 = (
    ModelIParams(A=1, K=1, K_AGI=1e-16, L=1, alpha=0, beta=0.5), "alpha", TO_INF, None
)
LIMIT_IS_1E_MINUS_400 = (
    ModelIParams(A=1e-200, K=1e-200, K_AGI=1, L=1, alpha=1, beta=0.5), "K_AGI", TO_ZERO, None
)
FACTORS_CANCEL = (
    ModelIIParams(A=1, K=1e300, L1=1, L2=1e300, alpha=1e307, beta1=0, beta2=-1e307),
    "L1", TO_ZERO, None,
)
LIMIT_IS_1E600 = (
    ModelIIParams(A=1e300, K=1e300, L1=1, L2=1, alpha=1, beta1=0, beta2=0.5), "L1", TO_INF, None
)


def _all_cases(cls, values):
    _, labor = _SYMBOLIC_OUTPUT[cls]
    for target in values:
        if target == "A":
            continue  # TFP is not a quantity or exponent of the expression
        for direction in (TO_ZERO, TO_INF):
            for wage in (None, *labor):
                yield target, direction, wage


class TestClassifyLimit:
    def test_unknown_wage_violates_contract(self):
        params = ModelIIParams(A=1, K=1, L1=1, L2=1, alpha=0.3, beta1=0.4, beta2=0.2)
        with pytest.raises(ContractViolationError, match="^model_ii has no wage for factor 'L'$"):
            classify_limit(params, "K", TO_ZERO, "L")

    def test_negative_wage_prefactor_keeps_its_sign(self):
        # w_L1 = beta1 * A * K**alpha * L1**(beta1 - 1) * L2**beta2 < 0 for
        # beta1 < 0, and tends to that value without K**alpha as alpha -> 0+;
        # the limit's constant is summed in logs, so its sign is carried apart
        params = ModelIIParams(A=2, K=3, L1=2, L2=1.5, alpha=0.3, beta1=-0.5, beta2=0.4)
        result = classify_limit(params, "alpha", TO_ZERO, "L1")
        assert result.kind is LimitKind.FINITE
        assert result.value == pytest.approx(2 * -0.5 * 2**-1.5 * 1.5**0.4, rel=1e-12)

    def test_wage_diverges_as_labor_vanishes(self):
        # the literal marginal product grows without bound: w ~ L**(beta-1)
        params = ModelIParams(A=1, K=1, K_AGI=1, L=1, alpha=0.5, beta=0.5)
        result = classify_limit(params, "L", TO_ZERO, "L")
        assert result.kind is LimitKind.DIVERGES

    def test_wage_vanishes_with_its_elasticity(self):
        params = ModelIIParams(A=1, K=1, L1=1, L2=1, alpha=0.3, beta1=0.4, beta2=0.2)
        result = classify_limit(params, "beta1", TO_ZERO, "L1")
        assert result.kind is LimitKind.ZERO

    def test_output_diverges_with_agi_capital(self):
        params = ModelIParams(A=1, K=1, K_AGI=1, L=2, alpha=0.5, beta=0.5)
        result = classify_limit(params, "K_AGI", TO_INF)
        assert result.kind is LimitKind.DIVERGES

    def test_model1_combined_capital_is_finite_at_zero(self):
        params = ModelIParams(A=2, K=3, K_AGI=1, L=4, alpha=0.5, beta=0.5)
        result = classify_limit(params, "K_AGI", TO_ZERO)
        assert result.kind is LimitKind.FINITE
        assert result.value == pytest.approx(2 * 3**0.5 * 4**0.5, rel=1e-12)

    def test_exponent_to_infinity_branches(self):
        base = dict(A=1.0, K=1.0, alpha=0.3, beta1=0.4, beta2=0.2)
        shrink = ModelIIParams(L1=0.5, L2=1.0, **base)
        neutral = ModelIIParams(L1=1.0, L2=1.0, **base)
        grow = ModelIIParams(L1=2.0, L2=1.0, **base)
        assert classify_limit(shrink, "beta1", TO_INF, "L1").kind is LimitKind.ZERO
        # at L1 = 1 the beta1 prefactor still grows linearly
        assert classify_limit(neutral, "beta1", TO_INF, "L1").kind is LimitKind.DIVERGES
        assert classify_limit(grow, "beta1", TO_INF, "L1").kind is LimitKind.DIVERGES

    def test_unknown_target_rejected(self):
        params = ModelIParams(A=1, K=1, K_AGI=1, L=1, alpha=0.5, beta=0.5)
        with pytest.raises(ContractViolationError):
            classify_limit(params, "gamma", TO_ZERO)

    def test_nonpositive_fixed_quantity_rejected(self):
        params = ModelIParams(A=1, K=0, K_AGI=1, L=1, alpha=0.5, beta=0.5)
        with pytest.raises(ContractViolationError):
            classify_limit(params, "L", TO_ZERO)

    @pytest.mark.parametrize(
        "k, alpha, direction, wage, kind, value",
        [
            (1e-12, 0.5, TO_ZERO, None, LimitKind.FINITE, 1e-6),
            (1e-12, 0.5, TO_ZERO, "L", LimitKind.FINITE, 5e-7),
            (1e30, 0.5, TO_INF, None, LimitKind.DIVERGES, None),
            (5e-324, 0.5, TO_ZERO, None, LimitKind.FINITE, math.sqrt(5e-324)),
            (1e306, 0.0, TO_INF, None, LimitKind.FINITE, 1.0),
        ],
        ids=["tiny-K-output", "tiny-K-wage", "huge-K", "subnormal-K", "overflowing-probe"],
    )
    def test_summed_capital_is_probed_relative_to_the_other_field(
        self, k, alpha, direction, wage, kind, value
    ):
        # K_AGI summed with a tiny, subnormal or huge K: the verdict comes from the
        # exponents alone, and a finite value takes K for K + K_AGI at K_AGI -> 0+,
        # or is K_total**0 = 1 however large K_AGI grows
        params = ModelIParams(A=1, K=k, K_AGI=1, L=1, alpha=alpha, beta=0.5)
        result = classify_limit(params, "K_AGI", direction, wage)
        assert result.kind is kind
        if value is not None:
            assert result.value == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize(
        "case, kind",
        [
            (PEAKS_AT_1E12, LimitKind.ZERO),
            (CONSTANT_OVERFLOWS, LimitKind.DIVERGES),
            (CONSTANT_UNDERFLOWS, LimitKind.DIVERGES),
            (BASE_ROUNDS_TO_1, LimitKind.DIVERGES),
        ],
        ids=["turning-point-at-1e12", "constant-overflows", "constant-underflows", "base-1+1e-16"],
    )
    def test_verdict_does_not_depend_on_the_constant_or_a_turning_point(self, case, kind):
        # v * (1 - 1e-12)**v peaks at v = 1e12 and then falls to 0; the next two
        # grow as a power of v, whatever their constant factor rounds to; and
        # (1 + 1e-16)**v grows, though 1 + 1e-16 rounds to 1.0
        assert classify_limit(*case) == LimitClassification(kind)

    def test_factors_past_the_float_range_can_cancel(self):
        # K**alpha * L2**beta2 = 1e300**(1e307 - 1e307) = 1, though alpha * ln(K) overflows
        assert classify_limit(*FACTORS_CANCEL) == LimitClassification(LimitKind.FINITE, 1.0)

    @pytest.mark.parametrize(
        "case, message",
        [
            (LIMIT_IS_1E_MINUS_400, "target 'K_AGI' (to_zero_plus)"),
            (LIMIT_IS_1E600, "target 'L1' (to_infinity)"),
        ],
        ids=["1e-400", "1e600"],
    )
    def test_finite_limit_outside_the_float_range_is_an_error(self, case, message):
        # A * (K + K_AGI)**alpha * L**beta -> 1e-200 * 1e-200 as K_AGI -> 0+, and
        # A * K**alpha * L1**0 * L2**beta2 = 1e300 * 1e300 whatever L1 is
        with pytest.raises(NonFiniteOutputError) as raised:
            classify_limit(*case)
        assert str(raised.value) == f"finite limit for {message} lies outside the float range"

    @given(limit_cases())
    @example(PEAKS_AT_1E12)
    @example(CONSTANT_OVERFLOWS)
    @example(CONSTANT_UNDERFLOWS)
    @example(BASE_ROUNDS_TO_1)
    @example(LIMIT_IS_1E_MINUS_400)
    @example(LIMIT_IS_1E600)
    @example(FACTORS_CANCEL)
    @settings(deadline=None)
    def test_agrees_with_the_literal_observable_in_mpmath(self, case):
        params, target, direction, wage = case
        kind, limit = mpmath_limit(params, target, direction, wage)
        try:
            result = classify_limit(params, target, direction, wage)
        except NonFiniteOutputError:
            # only for a finite limit that no float holds, give or take the rounding
            # of the library's log-space constant at either end of the range
            assert kind is LimitKind.FINITE
            assert abs(limit) < _SUBNORMAL_MIN or abs(limit) > _FLOAT_MAX * (1 - 1e-9), limit
            return
        assert result.kind is kind
        if kind is LimitKind.FINITE:
            assert abs(result.value - limit) <= 1e-9 * abs(limit) + _SUBNORMAL_MIN, limit

    @pytest.mark.parametrize(
        "cls,values",
        [
            (ModelIParams, MODEL1_VALUES),
            (ModelIIParams, MODEL2_VALUES),
            (ModelIIIParams, MODEL3_VALUES),
            (ModelIIIParams, MODEL3_NO_AGI_ELASTICITY),
        ],
        ids=["model1", "model2", "model3", "model3-zero-beta2"],
    )
    def test_agrees_with_symbolic_oracle_everywhere(self, cls, values):
        params = cls(**{k: float(v) for k, v in values.items()})
        for target, direction, wage in _all_cases(cls, values):
            expected_kind, expected_value = sympy_limit_kind(cls, values, target, direction, wage)
            result = classify_limit(params, target, direction, wage)
            label = f"{cls.ID} {target} {direction.value} wage={wage}"
            assert result.kind is expected_kind, label
            if expected_kind is LimitKind.FINITE:
                assert result.value == pytest.approx(expected_value, rel=1e-9), label

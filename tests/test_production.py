import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agiecon import (
    CobbDouglasTechnology,
    ContractViolationError,
    DomainError,
    FactorBundle,
    LimitClassification,
    LimitKind,
    euler_residual,
    homogeneity_degree,
    marginal_product,
    NonFiniteDerivativeError,
    NonFiniteOutputError,
    output,
)
from agiecon.diagnostics import _central_difference
from conftest import seeded_instances, tech_bundles

mpmath.mp.dps = 50


def mp_output(tech, bundle):
    """High-precision oracle for A * prod x**e."""
    y = mpmath.mpf(tech.tfp)
    for name, e in tech.elasticities:
        y *= mpmath.mpf(bundle.quantity(name)) ** mpmath.mpf(e)
    return float(y)


class TestOutput:
    def test_identity_case(self):
        tech = CobbDouglasTechnology.of(1.0, K=0.0, L=0.0)
        bundle = FactorBundle.of(K=7.3, L=0.01)
        assert output(tech, bundle) == 1.0

    def test_hand_value(self):
        tech = CobbDouglasTechnology.of(2.0, K=0.5, L=0.5)
        bundle = FactorBundle.of(K=4.0, L=9.0)
        y = output(tech, bundle)
        assert y == pytest.approx(12.0, rel=1e-15)  # 2 * 2 * 3
        assert y == pytest.approx(mp_output(tech, bundle), rel=1e-15)

    def test_zero_base_positive_exponent(self):
        tech = CobbDouglasTechnology.of(1.0, K_AGI=0.5)
        assert output(tech, FactorBundle.of(K_AGI=0.0)) == 0.0

    def test_zero_base_zero_exponent_is_one(self):
        tech = CobbDouglasTechnology.of(3.0, K=1.0, L=0.0)
        assert output(tech, FactorBundle.of(K=2.0, L=0.0)) == 6.0

    def test_missing_factor(self):
        tech = CobbDouglasTechnology.of(1.0, K=0.5, L=0.5)
        with pytest.raises(ContractViolationError):
            output(tech, FactorBundle.of(K=1.0))

    def test_zero_base_negative_exponent(self):
        tech = CobbDouglasTechnology.of(1.0, K=-0.5)
        with pytest.raises(NonFiniteOutputError):
            output(tech, FactorBundle.of(K=0.0))

    def test_extra_bundle_factors_are_ignored(self):
        tech = CobbDouglasTechnology.of(1.0, K=1.0)
        assert output(tech, FactorBundle.of(K=2.0, L=99.0)) == 2.0


class TestMarginalProduct:
    def test_unity_inputs_give_exponent(self):
        tech = CobbDouglasTechnology.of(1.0, K=0.5, L=0.5)
        bundle = FactorBundle.of(K=1.0, L=1.0)
        assert marginal_product(tech, bundle, "L") == pytest.approx(0.5, rel=1e-15)

    def test_hand_value(self):
        tech = CobbDouglasTechnology.of(2.0, K=0.5, L=0.5)
        bundle = FactorBundle.of(K=4.0, L=9.0)
        mp = marginal_product(tech, bundle, "L")
        assert mp == pytest.approx(0.5 * 12.0 / 9.0, rel=1e-15)
        assert mp == pytest.approx(_central_difference(tech, bundle, "L"), rel=1e-8)

    def test_zero_quantity_raises(self):
        tech = CobbDouglasTechnology.of(1.0, K=0.5)
        with pytest.raises(NonFiniteDerivativeError):
            marginal_product(tech, FactorBundle.of(K=0.0), "K")

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_elasticity_at_zero_quantity_is_zero(self, zero):
        # Y does not depend on a zero-elasticity factor, so its marginal
        # product is 0 at every quantity; it used to raise at quantity 0
        tech = CobbDouglasTechnology.of(2.0, K=0.5, L=zero)
        for bundle in (FactorBundle.of(K=4.0, L=0.0), FactorBundle.of(K=4.0, L=9.0)):
            assert marginal_product(tech, bundle, "L") == 0.0
        assert euler_residual(tech, FactorBundle.of(K=4.0, L=0.0)) == 0.0

    def test_zero_elasticity_keeps_the_output_errors(self):
        tech = CobbDouglasTechnology.of(1.0, K=-0.5, L=0.0)
        with pytest.raises(NonFiniteOutputError):
            marginal_product(tech, FactorBundle.of(K=0.0, L=0.0), "L")

    def test_factor_not_in_technology(self):
        tech = CobbDouglasTechnology.of(1.0, K=0.5)
        with pytest.raises(ContractViolationError):
            marginal_product(tech, FactorBundle.of(K=1.0, L=1.0), "L")


class TestHomogeneityDegree:
    def test_constant_returns(self):
        assert homogeneity_degree(CobbDouglasTechnology.of(1.0, K=0.5, L=0.5)) == 1.0

    def test_direct_sum(self):
        tech = CobbDouglasTechnology.of(1.0, K=0.25, K_AGI=0.25, L_h=0.5, L_AGI=0.1)
        assert homogeneity_degree(tech) == pytest.approx(1.1, abs=1e-15)

    def test_empty_technology(self):
        assert homogeneity_degree(CobbDouglasTechnology(2.0, ())) == 0.0


class TestEulerResidual:
    def test_unit_point(self):
        tech = CobbDouglasTechnology.of(1.0, K=0.5, L=0.5)
        assert abs(euler_residual(tech, FactorBundle.of(K=1.0, L=1.0))) <= 1e-12

    def test_hand_decomposition(self):
        # 4 * 1.5 + 9 * (2/3) = 12 = 1 * Y
        tech = CobbDouglasTechnology.of(2.0, K=0.5, L=0.5)
        bundle = FactorBundle.of(K=4.0, L=9.0)
        assert abs(euler_residual(tech, bundle)) <= 1e-10 * 12.0

    def test_seeded_sweep(self):
        for tech, bundle in seeded_instances(1000, seed=9001):
            y = output(tech, bundle)
            assert abs(euler_residual(tech, bundle)) <= 1e-10 * abs(y)

    def test_zero_quantity_raises(self):
        tech = CobbDouglasTechnology.of(1.0, K=0.5, L=0.5)
        with pytest.raises(NonFiniteDerivativeError):
            euler_residual(tech, FactorBundle.of(K=1.0, L=0.0))


class TestValidation:
    def test_bundle_rejects_negative_quantity(self):
        with pytest.raises(DomainError):
            FactorBundle.of(K=-1.0)

    def test_bundle_rejects_non_finite(self):
        with pytest.raises(DomainError):
            FactorBundle.of(K=math.inf)

    def test_bundle_rejects_a_name_that_is_not_a_string(self):
        with pytest.raises(
            DomainError, match="^FactorBundle: factor names must be non-empty strings$"
        ):
            FactorBundle(((1, 2.0),))

    def test_bundle_rejects_duplicate_names(self):
        with pytest.raises(DomainError):
            FactorBundle((("K", 1.0), ("K", 2.0)))

    def test_technology_rejects_nonpositive_tfp(self):
        with pytest.raises(DomainError):
            CobbDouglasTechnology.of(0.0, K=0.5)

    def test_technology_rejects_non_finite_exponent(self):
        with pytest.raises(DomainError):
            CobbDouglasTechnology.of(1.0, K=math.nan)

    def test_limit_classification_value_rules(self):
        with pytest.raises(DomainError):
            LimitClassification(LimitKind.ZERO, 1.0)
        with pytest.raises(DomainError):
            LimitClassification(LimitKind.FINITE, None)


@given(tech_bundles(), st.floats(0.5, 2.0))
def test_homogeneity_property(tech_bundle, t):
    tech, bundle = tech_bundle
    h = homogeneity_degree(tech)
    expected = t**h * output(tech, bundle)
    scaled = FactorBundle(tuple((n, x * t) for n, x in bundle.entries))
    assert output(tech, scaled) == pytest.approx(expected, rel=1e-12)


@given(tech_bundles())
def test_euler_property(tech_bundle):
    tech, bundle = tech_bundle
    y = output(tech, bundle)
    assert abs(euler_residual(tech, bundle)) <= 1e-10 * abs(y)


@given(tech_bundles(), st.integers(0, 3), st.floats(1.01, 3.0))
def test_monotonicity_in_each_factor(tech_bundle, index, bump):
    tech, bundle = tech_bundle
    names = tech.factor_names()
    name = names[index % len(names)]
    bigger = dict(bundle.entries)
    bigger[name] = bigger[name] * bump
    assert output(tech, FactorBundle(tuple(bigger.items()))) > output(tech, bundle)


@settings(max_examples=60)
@given(tech_bundles(), st.integers(0, 3))
def test_gradient_matches_central_difference(tech_bundle, index):
    tech, bundle = tech_bundle
    names = tech.factor_names()
    name = names[index % len(names)]
    analytic = marginal_product(tech, bundle, name)
    assert analytic == pytest.approx(_central_difference(tech, bundle, name), rel=1e-6)

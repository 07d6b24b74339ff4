import dataclasses
import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agiecon import (
    AdoptionKind,
    AdoptionPath,
    DomainError,
    ModelId,
    ModelIIIParams,
    ScenarioConfig,
    SimulationFailureError,
    TransitionParams,
    UndefinedBaselineError,
    UndefinedIndexError,
    adoption_share,
    detect_collapse,
    human_power,
    marginal_product,
    model_technology,
    output,
    run_scenario,
)
from agiecon.scenario import _sigmoid, _step

mpmath.mp.dps = 50


def base_params(beta2=0.0):
    return ModelIIIParams(
        A=1.0, K=1.0, K_AGI=1.0, L_h=1.0, L_AGI=0.0,
        alpha=0.3, gamma=0.2, beta1=0.4, beta2=beta2,
    )


def make_config(adoption=None, horizon=10, growth=0.05, beta2=0.0, threshold=0.5):
    return ScenarioConfig(
        horizon=horizon,
        initial_model3=base_params(beta2=beta2),
        adoption=adoption or AdoptionPath.linear(),
        agi_capital_growth=growth,
        transition=TransitionParams(w0=1.0, w_inf=1.0, lam=2.0),
        collapse_threshold=threshold,
    )


ALL_PATHS = (
    AdoptionPath.linear(),
    AdoptionPath.logistic(k=0.8, t0=5.0),
    AdoptionPath.exp_saturating(r=0.5),
)


class TestAdoptionShare:
    def test_linear_endpoints(self):
        path = AdoptionPath.linear()
        assert adoption_share(path, 0, 10) == 0.0
        assert adoption_share(path, 10, 10) == 1.0

    def test_logistic_midpoint_symmetry(self):
        for k in (0.2, 1.0, 3.0):
            share = adoption_share(AdoptionPath.logistic(k=k, t0=5.0), 5, 10)
            assert share == pytest.approx(0.5, abs=1e-12)

    def test_exp_saturating_value(self):
        share = adoption_share(AdoptionPath.exp_saturating(r=1.0), 5, 10)
        oracle = float((1 - mpmath.e**-5) / (1 - mpmath.e**-10))
        assert share == pytest.approx(oracle, rel=1e-12)
        assert abs(share - 0.9933071491) <= 5e-11

    def test_all_paths_pin_the_endpoints_exactly(self):
        for path in ALL_PATHS:
            assert adoption_share(path, 0, 7) == 0.0
            assert adoption_share(path, 7, 7) == 1.0

    def test_all_paths_non_decreasing(self):
        for path in ALL_PATHS:
            shares = [adoption_share(path, t, 50) for t in range(51)]
            assert all(b >= a for a, b in zip(shares, shares[1:]))

    def test_out_of_range_step(self):
        with pytest.raises(DomainError):
            adoption_share(AdoptionPath.linear(), 11, 10)
        with pytest.raises(DomainError):
            adoption_share(AdoptionPath.linear(), -1, 10)

    @pytest.mark.parametrize(
        "path",
        [AdoptionPath.exp_saturating(r=1e-300), AdoptionPath.logistic(k=1e-300, t0=5.0)],
        ids=["exp_saturating", "logistic"],
    )
    def test_vanishing_rate_is_a_domain_error(self, path):
        # the normalizer s(horizon) - s(0) rounds to 0; dividing by it used
        # to escape as a ZeroDivisionError
        with pytest.raises(DomainError, match="does not rise"):
            adoption_share(path, 3, 10)
        with pytest.raises(DomainError, match="does not rise"):
            make_config(adoption=path, horizon=10)

    def test_path_parameter_validation(self):
        with pytest.raises(DomainError):
            AdoptionPath.logistic(k=0.0, t0=5.0)
        with pytest.raises(DomainError):
            AdoptionPath.exp_saturating(r=-1.0)
        with pytest.raises(DomainError):
            AdoptionPath(AdoptionKind.LINEAR, k=1.0)


class TestRunScenario:
    def test_first_record_reproduces_initial_params(self):
        cfg = make_config(horizon=1)
        record = run_scenario(cfg)[0]
        assert record.s == 0.0
        assert record.beta1 == cfg.initial_model3.beta1
        assert record.p_h_elastic == pytest.approx(0.4 / 0.4, abs=1e-15)

    def test_elastic_index_at_midpoint(self):
        cfg = make_config(beta2=0.2, horizon=10)
        record = run_scenario(cfg)[5]
        # transfer: beta1 = 0.3 * ... here beta1_0=0.4 -> 0.2, beta2 = 0.2 + 0.2
        assert record.beta1 == pytest.approx(0.2, abs=1e-15)
        assert record.beta2 == pytest.approx(0.4, abs=1e-15)
        assert record.p_h_elastic == pytest.approx(0.2 / 0.6, abs=1e-12)

    def test_midpoint_transfer_with_nonzero_initial_agi_elasticity(self):
        cfg = ScenarioConfig(
            horizon=10,
            initial_model3=ModelIIIParams(
                A=1, K=1, K_AGI=1, L_h=1, L_AGI=0, alpha=0.3, gamma=0.2, beta1=0.3, beta2=0.2
            ),
            adoption=AdoptionPath.linear(),
        )
        record = run_scenario(cfg)[5]
        assert record.p_h_elastic == pytest.approx(0.15 / 0.5, abs=1e-12)

    @pytest.mark.parametrize("path", ALL_PATHS, ids=["linear", "logistic", "exp_saturating"])
    @pytest.mark.parametrize("horizon", [10, 100, 1000])
    def test_terminal_collapse_and_conservation(self, path, horizon):
        cfg = make_config(adoption=path, horizon=horizon, beta2=0.1)
        series = run_scenario(cfg)
        final = series[-1]
        assert final.s == 1.0
        assert final.w_h == 0.0
        assert final.p_h_elastic == 0.0
        assert final.beta1 == 0.0
        total = 0.4 + 0.1
        for record in series:
            assert record.L_h + record.L_AGI == pytest.approx(1.0, abs=1e-12)
            assert record.beta1 + record.beta2 == pytest.approx(total, abs=1e-12)
        shares = [record.s for record in series]
        assert all(b >= a for a, b in zip(shares, shares[1:]))

    def test_boundary_wage_flags(self):
        # positive AGI elasticity with zero AGI labor: no finite marginal product
        flagged = run_scenario(make_config(beta2=0.2, horizon=4))[0]
        assert math.isnan(flagged.w_agi)
        assert flagged.Y == 0.0
        assert flagged.w_h == 0.0
        # zero AGI elasticity: the prefactor convention pins the wage at 0
        clean = run_scenario(make_config(beta2=0.0, horizon=4))[0]
        assert clean.w_agi == 0.0
        assert clean.Y > 0.0

    def test_wage_bill_is_wage_times_labor(self):
        for record in run_scenario(make_config(horizon=10)):
            assert record.wage_bill == record.w_h * record.L_h

    def test_stationarity_of_the_step_map(self):
        # with g = 0 the record depends on t only through s
        cfg = make_config(growth=0.0, horizon=50)
        records = [_step(cfg, t, 0.0) for t in range(5)]
        reference = dataclasses.asdict(records[0])
        for record in records[1:]:
            current = dataclasses.asdict(record)
            assert {k: v for k, v in current.items() if k != "t"} == {
                k: v for k, v in reference.items() if k != "t"
            }

    def test_agi_capital_growth(self):
        series = run_scenario(make_config(growth=0.5, horizon=4))
        for record in series:
            assert record.K_AGI == pytest.approx(1.5**record.t, rel=1e-15)

    def test_deterministic_reruns(self):
        cfg = make_config(adoption=AdoptionPath.logistic(k=0.8, t0=5.0), beta2=0.3)
        assert run_scenario(cfg) == run_scenario(cfg)

    def test_overflow_names_the_step(self):
        cfg = make_config(growth=1e300, horizon=3)
        with pytest.raises(SimulationFailureError, match="step 2"):
            run_scenario(cfg)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            make_config(horizon=0)
        with pytest.raises(DomainError):
            ScenarioConfig(
                horizon=5,
                initial_model3=dataclasses.replace(base_params(), beta1=0.0),
                adoption=AdoptionPath.linear(),
            )
        with pytest.raises(DomainError):
            make_config(adoption=AdoptionPath.logistic(k=1.0, t0=99.0), horizon=10)
        with pytest.raises(DomainError):
            make_config(threshold=0.0)


class TestDetectCollapse:
    def test_constant_series_never_collapses(self):
        series = run_scenario(make_config(growth=0.0, horizon=8))
        constant = [dataclasses.replace(r, w_h=0.4) for r in series]
        assert detect_collapse(constant, 0.5) is None

    def test_first_crossing_located(self):
        series = run_scenario(make_config(growth=0.0, horizon=10))
        wages = [r.w_h for r in series]
        # strictly decreasing into the midpoint (the later upswing is the
        # symmetric half of the transfer dynamics and never re-crosses first)
        assert all(b < a for a, b in zip(wages[:6], wages[1:6]))
        # choose theta so the cutoff falls strictly between steps 3 and 4
        theta = 0.5 * (wages[3] + wages[4]) / wages[0]
        step = detect_collapse(series, theta)
        assert step == 4
        # independent scalar scan oracle
        cutoff = theta * wages[0]
        oracle = next(t for t, w in enumerate(wages) if w < cutoff)
        assert step == oracle

    def test_theta_one_finds_first_strict_drop(self):
        series = run_scenario(make_config(growth=0.0, horizon=10))
        assert series[1].w_h < series[0].w_h
        assert detect_collapse(series, 1.0) == 1

    def test_zero_baseline_is_undefined(self):
        series = run_scenario(make_config(beta2=0.2, horizon=5))
        assert series[0].w_h == 0.0
        with pytest.raises(UndefinedBaselineError):
            detect_collapse(series, 0.5)

    def test_theta_domain(self):
        series = run_scenario(make_config(horizon=3))
        with pytest.raises(DomainError):
            detect_collapse(series, 1.5)


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def literal_share(path, t, horizon):
    """s(t) written out per call, with no term shared between steps."""
    if path.kind is AdoptionKind.LINEAR:
        return t / horizon
    if path.kind is AdoptionKind.LOGISTIC:
        low = _sigmoid(path.k * (0.0 - path.t0))
        high = _sigmoid(path.k * (horizon - path.t0))
        return (_sigmoid(path.k * (t - path.t0)) - low) / (high - low)
    return (1.0 - math.exp(-path.r * t)) / (1.0 - math.exp(-path.r * horizon))


def reference_step(cfg, t, s):
    """(K_AGI, Y, w_h, w_agi, wage_bill) through the generic model path."""
    p0 = cfg.initial_model3
    params = ModelIIIParams(
        A=p0.A, K=p0.K, K_AGI=p0.K_AGI * (1.0 + cfg.agi_capital_growth) ** t,
        L_h=1.0 - s, L_AGI=s, alpha=p0.alpha, gamma=p0.gamma,
        beta1=p0.beta1 * (1.0 - s), beta2=p0.beta2 + p0.beta1 * s,
    )
    tech, bundle = model_technology(ModelId.MODEL_III, params)

    def wage(name, elasticity):
        if bundle.quantity(name) > 0.0:
            return marginal_product(tech, bundle, name)
        return 0.0 if elasticity == 0.0 else math.nan

    w_h = wage("L_h", params.beta1)
    return params.K_AGI, output(tech, bundle), w_h, wage("L_AGI", params.beta2), w_h * params.L_h


@st.composite
def scenario_configs(draw):
    horizon = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(AdoptionKind))
    if kind is AdoptionKind.LOGISTIC:
        adoption = AdoptionPath.logistic(
            k=draw(st.floats(0.05, 3.0)), t0=draw(st.floats(0.0, float(horizon)))
        )
    elif kind is AdoptionKind.EXP_SATURATING:
        adoption = AdoptionPath.exp_saturating(r=draw(st.floats(0.01, 2.0)))
    else:
        adoption = AdoptionPath.linear()
    params = ModelIIIParams(
        A=draw(st.floats(0.1, 10.0)),
        K=draw(st.floats(0.1, 10.0)),
        K_AGI=draw(st.floats(0.1, 10.0)),
        L_h=1.0,
        L_AGI=0.0,
        alpha=draw(st.floats(-0.5, 1.0)),
        gamma=draw(st.floats(-0.5, 1.0)),
        beta1=draw(st.floats(0.01, 1.0)),
        beta2=draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0))),
    )
    return ScenarioConfig(
        horizon=horizon,
        initial_model3=params,
        adoption=adoption,
        agi_capital_growth=draw(st.floats(0.0, 0.5)),
        transition=TransitionParams(
            w0=draw(st.floats(0.1, 10.0)),
            w_inf=draw(st.one_of(st.just(0.0), st.floats(0.1, 10.0))),
            lam=draw(st.floats(0.1, 20.0)),
        ),
    )


@given(scenario_configs())
def test_closed_form_step_matches_the_generic_model_path_exactly(cfg):
    series = run_scenario(cfg)
    assert [record.t for record in series] == list(range(cfg.horizon + 1))
    for record in series:
        s = literal_share(cfg.adoption, record.t, cfg.horizon)
        assert record.s == s and record.L_AGI == s and record.L_h == 1.0 - s
        k_agi, y, w_h, w_agi, wage_bill = reference_step(cfg, record.t, s)
        assert record.K_AGI == k_agi
        assert record.Y == y
        assert record.w_h == w_h
        assert same(record.w_agi, w_agi)
        assert record.wage_bill == wage_bill
        try:
            p_h = human_power(cfg.transition, s)
        except UndefinedIndexError:
            p_h = math.nan
        assert same(record.p_h_transition, p_h)

import math
import re
from pathlib import Path

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agiecon import (
    AdoptionKind,
    AdoptionPath,
    ContractViolationError,
    DomainError,
    EconError,
    ModelIIIParams,
    ModelIParams,
    NonFiniteOutputError,
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
from agiecon.config import build_scenario_config, parse_config_file
from agiecon.scenario import ADOPTION_PARAMS, MAX_HORIZON, TimeSeriesRecord, _step_columns

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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

    @pytest.mark.parametrize("horizon", [10**400, MAX_HORIZON + 1], ids=["10**400", "max+1"])
    @pytest.mark.parametrize("path", ALL_PATHS, ids=lambda path: path.kind.value)
    def test_horizon_above_the_bound_is_a_domain_error(self, path, horizon):
        # a run's bound, checked first: 10**400 used to escape as an
        # OverflowError, and the linear path gave t/T above the bound
        with pytest.raises(DomainError, match=f"^horizon must be <= {MAX_HORIZON}, got {horizon}$"):
            adoption_share(path, 3, horizon)

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

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_rates_must_be_finite_and_positive(self, value):
        with pytest.raises(
            DomainError, match=rf"^logistic steepness k must be finite and > 0, got {value!r}$"
        ):
            AdoptionPath.logistic(k=value, t0=5.0)
        with pytest.raises(
            DomainError, match=rf"^exp_saturating rate r must be finite and > 0, got {value!r}$"
        ):
            AdoptionPath.exp_saturating(r=value)

    def test_path_parameter_validation(self):
        with pytest.raises(DomainError):
            AdoptionPath.logistic(k=0.0, t0=5.0)
        with pytest.raises(DomainError):
            AdoptionPath.exp_saturating(r=-1.0)
        with pytest.raises(DomainError):
            AdoptionPath(AdoptionKind.LINEAR, k=1.0)

    def test_kind_must_be_an_adoption_kind(self):
        # the string used to escape as a KeyError from the ADOPTION_PARAMS lookup
        with pytest.raises(DomainError, match="AdoptionKind, got 'linear'"):
            AdoptionPath("linear")

    @pytest.mark.parametrize("kind", list(AdoptionKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("key", ["k", "t0", "r"])
    def test_parameters_are_the_adoption_params(self, kind, key):
        takes = ADOPTION_PARAMS[kind]
        values = {name: 0.5 for name in takes}
        if key in takes:
            del values[key]
            match = rf"^{kind.value} adoption needs {' and '.join(takes)}$"
        else:
            values[key] = 0.5
            match = rf"^{kind.value} adoption does not take {key}$"
        with pytest.raises(DomainError, match=match):
            AdoptionPath(kind, **values)


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
        # with g = 0 the record depends on t only through s; this path's
        # sigmoid underflows, so s(t) is exactly 0 for t <= 25
        cfg = make_config(adoption=AdoptionPath.logistic(k=10.0, t0=100.0), growth=0.0,
                          horizon=200)
        records = run_scenario(cfg)[:5]
        assert [record.s for record in records] == [0.0] * 5
        reference = records[0]._asdict()
        for record in records[1:]:
            current = record._asdict()
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

    def test_share_outside_the_unit_interval_is_a_domain_error(self):
        # no adoption path yields such a share; the step check still holds
        message = r"^step 3: adoption share must lie in \[0, 1\], got 1.5$"
        with pytest.raises(DomainError, match=message):
            _step_columns(make_config(), range(3, 4), [1.5])

    def test_config_validation(self):
        with pytest.raises(DomainError):
            make_config(horizon=0)
        with pytest.raises(DomainError):
            ScenarioConfig(
                horizon=5,
                initial_model3=base_params()._replace(beta1=0.0),
                adoption=AdoptionPath.linear(),
            )
        with pytest.raises(DomainError):
            make_config(adoption=AdoptionPath.logistic(k=1.0, t0=99.0), horizon=10)
        with pytest.raises(DomainError):
            make_config(threshold=0.0)

    @pytest.mark.parametrize("path", ALL_PATHS, ids=lambda path: path.kind.value)
    def test_horizon_too_large_for_a_float_is_a_domain_error(self, path):
        # the bound comes before any float arithmetic on the horizon
        horizon = 10**400
        message = f"^horizon must be <= {MAX_HORIZON}, got {horizon}$"
        with pytest.raises(DomainError, match=message):
            make_config(adoption=path, horizon=horizon)

    def test_conserved_elasticity_total_must_be_finite(self):
        # with such a total beta2_t = beta2_0 + beta1_0 * s is inf at s = 1,
        # and a step record holding it is not a valid ModelIIIParams
        params = base_params()._replace(gamma=300.0, beta1=1e308, beta2=1e308)
        with pytest.raises(DomainError, match=r"^initial beta1 \+ beta2 must be finite, got inf$"):
            ScenarioConfig(4, params, AdoptionPath.linear(), agi_capital_growth=1.0)
        params = params._replace(beta2=1e307)  # a finite total bounds every step's beta2
        series = run_scenario(ScenarioConfig(4, params, AdoptionPath.linear(), 0.0))
        assert series[-1].beta2 == 1e307 + 1e308

    @pytest.mark.parametrize(
        "params",
        [ModelIParams(1, 1, 1, 1, 0.3, 0.6), None],
        ids=["model_i", "none"],
    )
    def test_initial_params_must_be_model3(self, params):
        # any other record used to escape as an AttributeError on beta1
        message = f"^ScenarioConfig expects ModelIIIParams, got {type(params).__name__}$"
        with pytest.raises(ContractViolationError, match=message):
            ScenarioConfig(10, params, AdoptionPath.linear())


class TestDetectCollapse:
    def test_constant_series_never_collapses(self):
        series = run_scenario(make_config(growth=0.0, horizon=8))
        constant = [r._replace(w_h=0.4) for r in series]
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

    def test_empty_series_breaks_the_contract(self):
        # an empty series has no w_h(0); an empty window with its baseline has no crossing
        with pytest.raises(ContractViolationError, match="^empty series$"):
            detect_collapse([], 0.5)
        assert detect_collapse([], 0.5, 1.0) is None

    def test_windows_searched_with_the_first_windows_baseline(self):
        series = run_scenario(make_config(growth=0.0, horizon=10))
        wages = [r.w_h for r in series]
        theta = 0.5 * (wages[3] + wages[4]) / wages[0]
        assert detect_collapse(series, theta) == 4
        assert detect_collapse(series[:3], theta) is None
        assert detect_collapse(series[3:6], theta, series[0].w_h) == 4
        assert detect_collapse(series[5:], theta, series[0].w_h) == 5
        # its own first w_h would be a different baseline
        assert detect_collapse(series[3:6], theta) is None

    @pytest.mark.parametrize("baseline", [0.0, math.nan])
    def test_undefined_baseline_given_with_a_window(self, baseline):
        series = run_scenario(make_config(horizon=5))
        with pytest.raises(UndefinedBaselineError, match="^w_h\\(0\\) = 0: "):
            detect_collapse(series[2:], 0.5, baseline)


def sigmoid(z):
    """1 / (1 + e^-z), or e^z / (1 + e^z) below 0 so that no exp overflows."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    return math.exp(z) / (1.0 + math.exp(z))


def literal_share(path, t, horizon):
    """s(t) written out per call, with no term shared between steps."""
    if path.kind is AdoptionKind.LINEAR:
        return t / horizon
    if path.kind is AdoptionKind.LOGISTIC:
        low = sigmoid(path.k * (0.0 - path.t0))
        high = sigmoid(path.k * (horizon - path.t0))
        return (sigmoid(path.k * (t - path.t0)) - low) / (high - low)
    return (1.0 - math.exp(-path.r * t)) / (1.0 - math.exp(-path.r * horizon))


def reference_step(cfg, t, s):
    """Record t through the generic model path, or the step's error, with
    the checks in the step's order: K_AGI finite, s in [0, 1], Y finite,
    w_h and the wage bill finite, w_agi not infinite."""
    p0 = cfg.initial_model3
    try:
        k_agi = p0.K_AGI * (1.0 + cfg.agi_capital_growth) ** t
    except OverflowError:
        k_agi = math.inf
    if not math.isfinite(k_agi):
        raise SimulationFailureError(f"step {t}: AGI capital overflowed")
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"step {t}: adoption share must lie in [0, 1], got {s!r}")
    params = ModelIIIParams(
        A=p0.A, K=p0.K, K_AGI=k_agi, L_h=1.0 - s, L_AGI=s, alpha=p0.alpha, gamma=p0.gamma,
        beta1=p0.beta1 * (1.0 - s), beta2=p0.beta2 + p0.beta1 * s,
    )
    tech, bundle = model_technology(params)
    try:
        y = output(tech, bundle)
    except NonFiniteOutputError as exc:
        raise SimulationFailureError(f"step {t}: {exc}") from exc

    def wage(name, elasticity):
        if bundle.quantity(name) > 0.0:
            return marginal_product(tech, bundle, name)
        return 0.0 if elasticity == 0.0 else math.nan

    w_h, w_agi = wage("L_h", params.beta1), wage("L_AGI", params.beta2)
    wage_bill = w_h * params.L_h
    for label, value in (("w_h", w_h), ("wage_bill", wage_bill)):
        if not math.isfinite(value):
            raise SimulationFailureError(f"step {t}: {label} is not finite ({value!r})")
    if math.isinf(w_agi):
        raise SimulationFailureError(f"step {t}: w_agi is not finite ({w_agi!r})")
    try:
        p_h = human_power(cfg.transition, s)
    except UndefinedIndexError:
        p_h = math.nan
    return TimeSeriesRecord(
        t, s, params.beta1, params.beta2, p0.K, k_agi, params.L_h, s, y, w_h, w_agi,
        params.beta1 / (params.beta1 + params.beta2), p_h, wage_bill,
    )


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


def step_loop(cfg):
    """run_scenario as a per-step loop through the generic model path."""
    return [
        reference_step(cfg, t, adoption_share(cfg.adoption, t, cfg.horizon))
        for t in range(cfg.horizon + 1)
    ]


@given(scenario_configs())
def test_closed_form_step_matches_the_generic_model_path_exactly(cfg):
    series = run_scenario(cfg)
    assert [record.t for record in series] == list(range(cfg.horizon + 1))
    for record in series:
        s = literal_share(cfg.adoption, record.t, cfg.horizon)
        assert record.s == s and record.L_AGI == s and record.L_h == 1.0 - s
        # repr tells NaN and the sign of zero apart
        assert repr(record) == repr(reference_step(cfg, record.t, s))


def outcome(run, cfg):
    """The records' repr (NaN-aware, sign of zero included), or the error's
    type and message."""
    try:
        return repr(run(cfg))
    except EconError as exc:
        return type(exc), str(exc)


def demo_config(**changes):
    return build_scenario_config(parse_config_file(CONFIGS / "simulate_demo.ini"))._replace(
        **changes
    )


def with_params(cfg, **changes):
    return cfg._replace(initial_model3=cfg.initial_model3._replace(**changes))


COLUMN_CASES = {
    f"{path.kind.value}-beta2={beta2}": make_config(adoption=path, horizon=5000, beta2=beta2,
                                                   growth=1e-4)
    for path in ALL_PATHS
    for beta2 in (0.0, 0.2)
}
COLUMN_CASES.update(
    {
        # shares that round to exactly 0 and 1 over long stretches
        "steep-logistic": make_config(
            adoption=AdoptionPath.logistic(k=0.5, t0=2500.0), horizon=5000, beta2=0.2
        ),
        "no-agi-income": make_config(horizon=5000, growth=0.0)._replace(
            transition=TransitionParams(w0=1.0, w_inf=0.0, lam=3.0)
        ),
        "demo": demo_config(),
        "demo-at-14548": demo_config(horizon=14548),
    }
)
FAILING_CASES = {
    "agi-capital-overflow": (demo_config(horizon=15000), "step 14548: AGI capital overflowed"),
    "K-term-overflow": (
        with_params(make_config(horizon=50), K=1e300, alpha=2.0),
        "step 0: term 'K'**2.0 overflows",
    ),
    "K_AGI-term-overflow": (
        with_params(make_config(horizon=500, growth=1.0), gamma=3.0),
        "step 342: term 'K_AGI'**3.0 overflows",
    ),
    "output-not-finite": (
        with_params(make_config(horizon=50), A=1e308, K=10.0, alpha=1.0),
        "step 0: output is not finite: inf",
    ),
    "w_h-not-finite": (
        with_params(make_config(horizon=50), A=1e308, beta1=5.0),
        "step 0: w_h is not finite (inf)",
    ),
    # without growth, Y and w_h stay finite at every step
    "w_agi-not-finite": (
        with_params(
            make_config(adoption=AdoptionPath.logistic(k=0.5, t0=900.0), horizon=1000, growth=0.0),
            A=1e306,
            beta2=0.3,
        ),
        "step 1: w_agi is not finite (inf)",
    ),
    # K_AGI, checked first, overflows from step 775 on; the first failing step still raises
    "w_agi-before-agi-capital-overflow": (
        with_params(
            make_config(adoption=AdoptionPath.logistic(k=0.5, t0=900.0), horizon=1000, growth=1.5),
            A=1e306,
            beta2=0.3,
            gamma=0.0,
        ),
        "step 1: w_agi is not finite (inf)",
    ),
}


@pytest.mark.parametrize("cfg", COLUMN_CASES.values(), ids=COLUMN_CASES.keys())
def test_run_scenario_equals_the_step_loop(cfg):
    assert outcome(run_scenario, cfg) == outcome(step_loop, cfg)


@pytest.mark.parametrize("cfg,message", FAILING_CASES.values(), ids=FAILING_CASES.keys())
def test_run_scenario_raises_the_step_loops_first_error(cfg, message):
    assert outcome(run_scenario, cfg) == outcome(step_loop, cfg)
    with pytest.raises(SimulationFailureError, match=f"^{re.escape(message)}$"):
        run_scenario(cfg)


@given(scenario_configs(), st.data())
def test_run_scenario_equals_the_step_loop_on_extreme_params(cfg, data):
    # exponents, scales and growth wide enough that some runs fail part way
    p0 = cfg.initial_model3._replace(
        A=data.draw(st.sampled_from((1.0, 1e150, 1e300, 1e308))),
        beta1=data.draw(st.floats(0.01, 6.0)),
        gamma=data.draw(st.floats(-3.0, 3.0)),
    )
    cfg = cfg._replace(
        horizon=cfg.horizon * 10,
        initial_model3=p0,
        agi_capital_growth=data.draw(st.sampled_from((0.0, 0.05, 3.0, 1e300))),
    )
    assert outcome(run_scenario, cfg) == outcome(step_loop, cfg)


def windowed(size):
    """run_scenario one window of ``size`` steps at a time, joined."""

    def run(cfg):
        steps = range(cfg.horizon + 1)
        return [
            record
            for start in range(0, len(steps), size)
            for record in run_scenario(cfg, steps[start:start + size])
        ]

    return run


WINDOW_CASES = {**COLUMN_CASES, **{name: cfg for name, (cfg, _) in FAILING_CASES.items()}}


@pytest.mark.parametrize("size", [1, 997])
@pytest.mark.parametrize("cfg", WINDOW_CASES.values(), ids=WINDOW_CASES.keys())
def test_windows_join_to_the_whole_run(cfg, size):
    # a failing run raises its first failing step's error from that step's window
    assert outcome(windowed(size), cfg) == outcome(run_scenario, cfg)


@given(scenario_configs(), st.data())
def test_a_window_is_the_whole_runs_records_for_its_steps(cfg, data):
    start = data.draw(st.integers(0, cfg.horizon + 1))
    stop = data.draw(st.integers(start, cfg.horizon + 1))
    window = run_scenario(cfg, range(start, stop))
    assert repr(window) == repr(run_scenario(cfg)[start:stop])


@pytest.mark.parametrize(
    "steps", [range(-1, 3), range(0, 12), range(0, 10, 2), [0, 1]], ids=repr
)
def test_a_window_outside_the_run_breaks_the_contract(steps):
    message = f"steps must be a window of range(0, 11), got {steps!r}"
    with pytest.raises(ContractViolationError, match=f"^{re.escape(message)}$"):
        run_scenario(make_config(horizon=10), steps)

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agiecon import AdoptionKind, AdoptionPath, ConfigError, ModelIIIParams
from agiecon.calibration import MAX_FACTORS
from agiecon.config import (
    FitSpec,
    ParsedConfig,
    ScenarioSection,
    build_scenario_config,
    parse_config_text,
    render_config,
)
from agiecon.models import PARAM_TYPES
from agiecon.scenario import ADOPTION_PARAMS, MAX_HORIZON
from agiecon.transition import MAX_N_POINTS, TransitionParams


class TestTransitionSection:
    def test_defaults_applied(self):
        parsed = parse_config_text("[transition]\nlambda = 2\n")
        assert parsed.transition == TransitionParams(w0=1.0, w_inf=1.0, lam=2.0)
        assert parsed.n_points == 101

    def test_empty_document_gets_full_defaults(self):
        parsed = parse_config_text("")
        assert parsed.transition == TransitionParams()
        assert parsed.n_points == 101
        assert parsed.model_params is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"\[transition\]\.decay"):
            parse_config_text("[transition]\ndecay = 2\n")

    def test_non_finite_rejected(self):
        # the record's finiteness rule, reported under the section
        message = r"^\[transition\]: lambda must be a positive finite real, got inf$"
        with pytest.raises(ConfigError, match=message):
            parse_config_text("[transition]\nlambda = inf\n")

    def test_invariant_violation_located(self):
        with pytest.raises(ConfigError, match=r"\[transition\]"):
            parse_config_text("[transition]\nw0 = 0\n")

    def test_n_points_minimum(self):
        with pytest.raises(ConfigError, match="n_points"):
            parse_config_text("[transition]\nn_points = 1\n")

    def test_n_points_maximum(self):
        # parsing allocates no grid, so the bound itself can be tested
        parsed = parse_config_text(f"[transition]\nn_points = {MAX_N_POINTS}\n")
        assert parsed.n_points == MAX_N_POINTS
        message = (
            rf"^\[transition\]: n_points must be an integer in \[2, {MAX_N_POINTS}\],"
            rf" got {MAX_N_POINTS + 1}$"
        )
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"[transition]\nn_points = {MAX_N_POINTS + 1}\n")


MODEL3_TEXT = """
[model]
id = model_iii
A = 1.5
K = 2.0
K_AGI = 1.0
L_h = 1.0
L_AGI = 0.0
alpha = 0.3
gamma = 0.2
beta1 = 0.4
beta2 = 0.0
"""


class TestModelSection:
    def test_model3_parses(self):
        parsed = parse_config_text(MODEL3_TEXT)
        assert type(parsed.model_params) is ModelIIIParams
        assert parsed.model_params.A == 1.5
        assert parsed.model_params.beta1 == 0.4

    def test_unparseable_number_names_the_key(self):
        text = "[model]\nid = model_i\nA = 1\nK = 1\nK_AGI = 1\nL = 1\nalpha = 0.5\nbeta = abc\n"
        with pytest.raises(ConfigError, match=r"\[model\]\.beta"):
            parse_config_text(text)

    def test_missing_key_named(self):
        text = "[model]\nid = model_i\nA = 1\nK = 1\nK_AGI = 1\nL = 1\nalpha = 0.5\n"
        with pytest.raises(ConfigError, match=r"\[model\]\.beta"):
            parse_config_text(text)

    def test_foreign_parameter_rejected(self):
        text = (
            "[model]\nid = model_i\nA = 1\nK = 1\nK_AGI = 1\nL = 1\n"
            "alpha = 0.5\nbeta = 0.5\nbeta1 = 0.3\n"
        )
        with pytest.raises(ConfigError, match=r"\[model\]\.beta1"):
            parse_config_text(text)

    def test_unknown_model_id(self):
        message = "[model].id: expected one of model_i, model_ii, model_iii, got 'model_iv'"
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("[model]\nid = model_iv\n")
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("cls", PARAM_TYPES.values(), ids=lambda cls: cls.ID)
    @pytest.mark.parametrize(
        "key", sorted({key for cls in PARAM_TYPES.values() for key in cls._fields})
    )
    def test_keys_are_the_params_fields(self, cls, key):
        keys = cls._fields
        values = {name: "0.5" for name in keys}
        if key in keys:
            del values[key]  # a field of this model is required
            match = rf"\[model\]\.{key}: missing required key"
        else:
            values[key] = "0.5"  # a field of another model is foreign
            match = rf"\[model\]\.{key}: unknown key"
        text = f"[model]\nid = {cls.ID}\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text)

    def test_invariant_violation_located(self):
        text = "[model]\nid = model_i\nA = 0\nK = 1\nK_AGI = 1\nL = 1\nalpha = 0.5\nbeta = 0.5\n"
        with pytest.raises(ConfigError, match=r"\[model\]"):
            parse_config_text(text)


class TestScenarioSection:
    def test_defaults(self):
        parsed = parse_config_text("[scenario]\nhorizon = 10\n")
        assert parsed.scenario.adoption == AdoptionPath.linear()
        assert parsed.scenario.growth == 0.05
        assert parsed.scenario.collapse_threshold == 0.5

    def test_logistic_requires_its_parameters(self):
        with pytest.raises(ConfigError, match=r"\[scenario\]\.k"):
            parse_config_text("[scenario]\nhorizon = 10\nadoption = logistic\n")

    def test_inapplicable_path_parameter_rejected(self):
        with pytest.raises(ConfigError, match=r"\[scenario\]\.r"):
            parse_config_text("[scenario]\nhorizon = 10\nadoption = linear\nr = 0.5\n")

    @pytest.mark.parametrize("kind", list(AdoptionKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("key", ["k", "t0", "r"])
    def test_keys_are_the_adoption_params(self, kind, key):
        takes = ADOPTION_PARAMS[kind]
        values = {name: "0.5" for name in takes}
        if key in takes:
            del values[key]  # a parameter the path takes is required
            match = rf"\[scenario\]\.{key}: missing required key"
        else:
            values[key] = "0.5"  # a parameter of another path is foreign
            match = rf"\[scenario\]\.{key}: unknown key"
        text = f"[scenario]\nhorizon = 10\nadoption = {kind.value}\n" + "".join(
            f"{k} = {v}\n" for k, v in values.items()
        )
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text)

    def test_horizon_bounds(self):
        # parsing runs no scenario, so the bound itself can be tested
        parsed = parse_config_text(f"[scenario]\nhorizon = {MAX_HORIZON}\n")
        assert parsed.scenario.horizon == MAX_HORIZON
        for horizon, message in (
            (0, r"horizon must be an integer >= 1, got 0"),
            (MAX_HORIZON + 1, rf"horizon must be <= {MAX_HORIZON}, got {MAX_HORIZON + 1}"),
        ):
            with pytest.raises(ConfigError, match=rf"^\[scenario\]: {message}$"):
                parse_config_text(f"[scenario]\nhorizon = {horizon}\n")

    @pytest.mark.parametrize(
        "path",
        ["", "adoption = logistic\nk = 1\nt0 = 5", "adoption = exp_saturating\nr = 0.5"],
        ids=["linear", "logistic", "exp_saturating"],
    )
    def test_horizon_too_large_for_a_float_is_a_config_error(self, path):
        # the bound is checked before the path computes with the horizon as a float
        horizon = 10**400
        message = rf"^\[scenario\]: horizon must be <= {MAX_HORIZON}, got {horizon}$"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"[scenario]\nhorizon = {horizon}\n{path}\n")

    def test_t0_must_fit_horizon(self):
        text = "[scenario]\nhorizon = 10\nadoption = logistic\nk = 1\nt0 = 11\n"
        message = r"^\[scenario\]: logistic midpoint t0=11.0 exceeds horizon 10$"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "path",
        ["adoption = logistic\nk = 1e-300\nt0 = 5", "adoption = exp_saturating\nr = 1e-300"],
        ids=["logistic", "exp_saturating"],
    )
    def test_path_that_cannot_rise_is_rejected_at_parse(self, path):
        # rejected for every command, not only when simulate builds the run
        with pytest.raises(ConfigError, match=r"^\[scenario\]: .* does not rise over horizon 10"):
            parse_config_text(f"[scenario]\nhorizon = 10\n{path}\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"\[scenarios\]"):
            parse_config_text("[scenarios]\nhorizon = 10\n")

    def test_sections_are_read_in_a_fixed_order(self):
        # [model] is read before [scenario], wherever the document puts them
        text = "[scenario]\nhorizon = 0\n\n[model]\nid = model_x\n"
        with pytest.raises(ConfigError, match=r"^\[model\]\.id: expected one of "):
            parse_config_text(text)

    def test_comments_and_spacing_tolerated(self):
        text = "# top note\n[scenario]\nhorizon = 10  # steps\nadoption = exp_saturating\nr = 0.5\n"
        parsed = parse_config_text(text)
        assert parsed.scenario.adoption == AdoptionPath.exp_saturating(0.5)

    def test_build_scenario_config_requires_model3(self):
        parsed = parse_config_text("[scenario]\nhorizon = 10\n")
        with pytest.raises(ConfigError, match="model_iii"):
            build_scenario_config(parsed)

    def test_build_scenario_config_full(self):
        parsed = parse_config_text(MODEL3_TEXT + "\n[scenario]\nhorizon = 10\n")
        cfg = build_scenario_config(parsed)
        assert cfg.horizon == 10
        assert cfg.initial_model3.A == 1.5


# one valid value for every key a section reads as a number
NUMERIC_KEYS = {
    "model": {
        "A": "1", "K": "1", "K_AGI": "1", "L_h": "1", "L_AGI": "0", "alpha": "0.3",
        "gamma": "0.2", "beta1": "0.4", "beta2": "0",
    },
    "transition": {"w0": "1", "w_inf": "1", "lambda": "2"},
    "scenario": {"k": "1", "t0": "5", "r": "0.5", "growth": "0.05", "collapse_threshold": "0.5"},
}


def _document(section, key, value):
    """A valid config reading ``key`` of ``section``, with that key set to ``value``."""
    values = dict(NUMERIC_KEYS[section], **{key: value})
    if section == "model":
        values["id"] = "model_iii"
    elif section == "scenario":  # r is exp_saturating's, k and t0 are logistic's
        foreign = ("k", "t0") if key == "r" else ("r",)
        values = {name: v for name, v in values.items() if name not in foreign}
        values.update(horizon="10", adoption="exp_saturating" if key == "r" else "logistic")
    return f"[{section}]\n" + "".join(f"{name} = {v}\n" for name, v in values.items())


class TestNonFiniteValues:
    """No reader checks finiteness: every number ends in a record or in
    ``check_run``, whose rule rejects NaN and infinities under the section."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section, key", [(section, key) for section in NUMERIC_KEYS for key in NUMERIC_KEYS[section]]
    )
    def test_rejected_by_the_rule_the_value_ends_in(self, section, key, value):
        parse_config_text(_document(section, key, NUMERIC_KEYS[section][key]))  # the control
        pattern = rf"^\[{section}\]: .*(?<![A-Za-z]){key}(?!\w).*, got {value}$"
        with pytest.raises(ConfigError, match=pattern):
            parse_config_text(_document(section, key, value))

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[transition]\nlambda = inf\nlambdas = 2\n", "transition].lambdas"),
            ("[scenario]\nhorizon = 0\nsteps = 2\n", "scenario].steps"),
            ("[model]\nid = model_i\nA = nan\nK = 1\nK_AGI = 1\nL = 1\nalpha = 1\n", "model].beta"),
        ],
        ids=["unknown-key", "unknown-key-after-horizon", "missing-key"],
    )
    def test_key_errors_come_before_value_errors(self, text, key):
        # a section's keys are all read before any of its values is checked
        with pytest.raises(ConfigError, match=rf"^\[{key}: (unknown|missing required) key$"):
            parse_config_text(text)


class TestFitSection:
    def test_parses_factor_list(self):
        parsed = parse_config_text("[fit]\nfactors = K, L\ninput = samples.csv\n")
        assert parsed.fit == FitSpec(factor_names=("K", "L"), input_path="samples.csv")

    def test_empty_factors_rejected(self):
        with pytest.raises(ConfigError, match=r"\[fit\]\.factors"):
            parse_config_text("[fit]\nfactors = ,\ninput = samples.csv\n")

    def test_duplicate_factors_rejected(self):
        with pytest.raises(ConfigError, match=r"\[fit\]\.factors"):
            parse_config_text("[fit]\nfactors = K, K\ninput = samples.csv\n")

    def test_factor_count_maximum(self):
        names = [f"x{i}" for i in range(MAX_FACTORS + 1)]
        parsed = parse_config_text(f"[fit]\nfactors = {', '.join(names[:-1])}\ninput = s.csv\n")
        assert parsed.fit.factor_names == tuple(names[:-1])
        message = rf"^\[fit\]\.factors: at most {MAX_FACTORS} factor names, got {MAX_FACTORS + 1}$"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"[fit]\nfactors = {', '.join(names)}\ninput = s.csv\n")


# --- round trip -------------------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def parsed_configs(draw):
    param_type = draw(st.sampled_from(list(PARAM_TYPES.values())))
    quantities = {base for _, bases, _ in param_type.TERMS for base in bases}

    def value(key):
        if key == "A":
            return draw(st.floats(0.1, 10.0, **finite))
        if key in quantities:
            return draw(st.floats(0.0, 10.0, **finite))
        return draw(st.floats(-1.0, 1.0, **finite))  # an exponent

    params = param_type(**{key: value(key) for key in param_type._fields})
    transition = TransitionParams(
        w0=draw(st.floats(0.1, 10.0, **finite)),
        w_inf=draw(st.floats(0.0, 10.0, **finite)),
        lam=draw(st.floats(0.1, 20.0, **finite)),
    )
    horizon = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(list(AdoptionKind)))
    if kind is AdoptionKind.LOGISTIC:
        adoption = AdoptionPath.logistic(
            k=draw(st.floats(0.1, 5.0, **finite)), t0=draw(st.floats(0.0, float(horizon), **finite))
        )
    elif kind is AdoptionKind.EXP_SATURATING:
        adoption = AdoptionPath.exp_saturating(r=draw(st.floats(0.1, 5.0, **finite)))
    else:
        adoption = AdoptionPath.linear()
    scenario = ScenarioSection(
        horizon=horizon,
        adoption=adoption,
        growth=draw(st.floats(0.0, 0.5, **finite)),
        collapse_threshold=draw(st.floats(0.01, 1.0, **finite)),
    )
    fit = draw(
        st.one_of(
            st.none(),
            st.just(FitSpec(factor_names=("K", "L_h"), input_path="samples.csv")),
        )
    )
    return ParsedConfig(
        model_params=params,
        transition=transition,
        n_points=draw(st.integers(2, 500)),
        scenario=scenario,
        fit=fit,
    )


@given(parsed_configs())
def test_render_parse_round_trip(parsed):
    assert parse_config_text(render_config(parsed)) == parsed
